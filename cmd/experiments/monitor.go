package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"pochoir"
)

var monitorAddr = flag.String("monitor-addr", "127.0.0.1:0",
	"listen address for the monitor experiment's embedded server (port 0 picks a free port)")

// runMonitor is the live-monitoring experiment and the CI smoke test of the
// metrics subsystem: it arms a registry, starts the embedded monitor server,
// executes a supervised Heat 2D run that panics once mid-flight, and scrapes
// its own /metrics and /progressz endpoints over real HTTP while the run
// recovers. Every scrape is validated line-by-line against the Prometheus
// text format; the zoid counter must strictly increase between scrapes, the
// supervisor counters must show the recovery, and the progress estimator
// must end at exactly 100%. Any violation exits nonzero, so
// `go run ./cmd/experiments -run monitor -quick` is a complete smoke test.
func runMonitor() {
	X, Y, steps := 512, 512, 96
	if *quick {
		X, Y, steps = 256, 256, 24
	}
	header(fmt.Sprintf("Monitor: live-scraped supervised Heat 2D run (%dx%d, %d steps)", X, Y, steps))

	reg := pochoir.NewMetrics()
	mon, err := pochoir.ServeMonitor(*monitorAddr, reg)
	if err != nil {
		monFail("starting monitor server: %v", err)
	}
	defer mon.Close()
	fmt.Printf("monitor listening on %s (endpoints: /metrics /statusz /progressz /debug/pprof/ /debug/vars)\n", mon.URL())

	rig := heatRig{X: X, Y: Y, Opts: pochoir.Options{Metrics: reg},
		Init: func(x, y int) float64 { return float64((x*31+y*17)%97) / 97 }}
	heat, u := rig.stencil()
	crashed := false
	kern := rig.kernel(u, func(t, x, y int, v float64) float64 {
		if !crashed && t == steps/2 && x == X/2 && y == Y/2 {
			crashed = true
			panic("injected mid-run fault")
		}
		return v
	})

	// Sample /progressz over HTTP while the supervised run executes.
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if line := progressLine(mon.URL()); line != "" {
					fmt.Printf("  live: %s\n", line)
				}
			}
		}
	}()
	start := time.Now()
	rep, err := heat.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: steps / 8,
		BaseDelay:    time.Millisecond,
	})
	close(done)
	if err != nil {
		monFail("supervised run failed: %v", err)
	}
	fmt.Printf("supervised run recovered in %s: %d segments, %d retries, %d restores\n",
		seconds(time.Since(start)), len(rep.Segments), rep.Retries, rep.Restores)

	expo1 := monScrape(mon.URL() + "/metrics")
	zoids1 := monMetric(expo1, "pochoir_zoids_total")
	fmt.Printf("scrape 1: %d bytes, pochoir_zoids_total %.0f, sup_retries %.0f, sup_restores %.0f\n",
		len(expo1), zoids1, monMetric(expo1, "pochoir_sup_retries_total"), monMetric(expo1, "pochoir_sup_restores_total"))
	if zoids1 <= 0 {
		monFail("zoid counter is %v after a run, want > 0", zoids1)
	}
	if monMetric(expo1, "pochoir_sup_retries_total") < 1 {
		monFail("supervisor retry counter did not record the injected fault")
	}

	// A second (plain) run must advance every cumulative counter.
	if err := heat.Run(steps, kern); err != nil {
		monFail("second run failed: %v", err)
	}
	expo2 := monScrape(mon.URL() + "/metrics")
	zoids2 := monMetric(expo2, "pochoir_zoids_total")
	fmt.Printf("scrape 2: %d bytes, pochoir_zoids_total %.0f\n", len(expo2), zoids2)
	if zoids2 <= zoids1 {
		monFail("zoid counter not increasing across scrapes: %v then %v", zoids1, zoids2)
	}
	if pct := monMetric(expo2, "pochoir_progress_percent"); pct != 100 {
		monFail("pochoir_progress_percent = %v after completion, want 100", pct)
	}
	fmt.Printf("final: %s\n", progressLine(mon.URL()))
	fmt.Println("monitor smoke: PASS (2 scrapes validated, counters monotone, progress 100%)")
	footer()
}

// monScrape GETs a monitor URL and validates the exposition, exiting
// nonzero on any transport or format error.
func monScrape(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		monFail("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		monFail("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	if err := pochoir.CheckMetricsExposition(body); err != nil {
		monFail("invalid exposition from %s: %v", url, err)
	}
	return body
}

// monMetric sums the samples of one family in a validated exposition.
func monMetric(expo []byte, name string) float64 {
	var sum float64
	for _, line := range strings.Split(string(expo), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		sample := fields[0]
		if brace := strings.IndexByte(sample, '{'); brace >= 0 {
			sample = sample[:brace]
		}
		if sample != name {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			monFail("bad sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// progressLine renders the newest run from /progressz as one line.
func progressLine(base string) string {
	resp, err := http.Get(base + "/progressz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var doc struct {
		Runs []pochoir.ProgressStat `json:"runs"`
	}
	if json.Unmarshal(body, &doc) != nil || len(doc.Runs) == 0 {
		return ""
	}
	r := doc.Runs[0]
	state := "done"
	if r.Active {
		state = "running"
	}
	return fmt.Sprintf("%s %s %.1f%% (%d/%d points, %.1f Mpts/s, ETA %.2fs)",
		r.Label, state, r.Percent, r.PointsDone, r.PointsTotal, r.RateMpts, r.ETASeconds)
}

// monFail prints the failure and exits nonzero — the smoke-test contract.
func monFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "monitor experiment FAILED: "+format+"\n", args...)
	os.Exit(1)
}
