// Command perfbench is the repository benchmark. It measures the two paths
// a user runs — a library Run on grids larger than cache (the paper's
// Fig. 3/Fig. 5 number, point updates per second) and a gateway job from
// POST /jobs to its result — and, in a separate traced run, splits each
// total into the layers of the code base.
//
//	bash perfbench/run.sh --workload lib-large --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root; run.sh builds this module into
// .bench_build/ first.
//
// Workloads: lib-large (cache-bound boxes), lib-small (walker-bound boxes)
// and gateway-mix (a closed-loop HTTP job mix). With --trace 0 the last
// line of standard output carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics. Every run checks its outputs against
// references that share no code with the measured paths. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	attempted int
	failed    int
	// problems lists failed checks (wrong outputs, failed self-tests);
	// any entry makes the run incorrect.
	problems []string
	metrics  map[string]metric
	spans    *spanLog
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed check; the run reports correct=false.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// detail prints a human-readable line that precedes the result line.
func detail(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "lib-large | lib-small | gateway-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measured seconds")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		probe    = flag.String("probe", "", "internal: run a gateway observability probe in this child process")
	)
	flag.Parse()
	if *probe != "" {
		if err := runProbe(*probe, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceArg == 1,
		metrics:  map[string]metric{},
		spans:    newSpanLog(),
	}
	printHost()
	var err error
	switch *workload {
	case "lib-large", "lib-small":
		err = runLib(r)
	case "gateway-mix":
		err = runGateway(r)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.traced {
		r.set("failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
		if err := r.completeLayers(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		path, err := r.spans.write(r.workload, r.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		detail("spans: %d written to %s", r.spans.len(), path)
	} else {
		r.set("peak_mem_mb", peakRSSMB(), "MB")
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// perLayer lists every per-layer metric of the traced run with its unit.
// A layer that does no work on a workload reports 0 there: counts and
// times are truly zero, and for ratios (unit "x") 0 marks "not measured".
var perLayer = []struct{ name, unit string }{
	{"stencils.heat_2p.mpts", "Mpts/s"},
	{"stencils.3d_7-point.mpts", "Mpts/s"},
	{"stencils.heat_4.mpts", "Mpts/s"},
	{"stencils.wave_3.mpts", "Mpts/s"},
	{"stencils.kernel_busy_s", "s"},
	{"stencils.speedup_vs_loops_serial", "x"},
	{"stencils.setup_s", "s"},
	{"core.walker_share", "ratio"},
	{"core.zoids", "count"},
	{"core.bases", "count"},
	{"core.base_points", "count"},
	{"core.base_vol_p50", "points"},
	{"core.trap_over_loops", "x"},
	{"sched.spawns", "count"},
	{"sched.inlines", "count"},
	{"sched.parallel_speedup", "x"},
	{"cachesim.miss_ratio.trap", "ratio"},
	{"cachesim.miss_ratio.loops", "ratio"},
	{"compiler.compile_ms", "ms"},
	{"compiler.instance_ms", "ms"},
	{"compiler.interp_mpts", "Mpts/s"},
	{"resilience.overhead", "x"},
	{"resilience.segments", "count"},
	{"resilience.checkpoints", "count"},
	{"gateway.admit_ms.p50", "ms"},
	{"gateway.admit_ms.p99", "ms"},
	{"gateway.queue_ms.p50", "ms"},
	{"gateway.queue_ms.p99", "ms"},
	{"gateway.run_ms.p50", "ms"},
	{"gateway.run_ms.p99", "ms"},
	{"gateway.result_ms.p50", "ms"},
	{"gateway.result_ms.p99", "ms"},
	{"gateway.retained_kb_per_job", "KB"},
	{"gateway.joblist_len", "count"},
	{"observability.overhead", "x"},
	{"ledger.gap", "ratio"},
	{"ledger.replay_share", "ratio"},
	{"bench.trace_overhead", "x"},
	{"failed_ratio", "ratio"},
}

// completeLayers reports the layers this workload does not exercise as 0
// and refuses a metric missing from perLayer or with another unit.
func (r *run) completeLayers() error {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for name, m := range r.metrics {
		if units[name] != m.Unit {
			return fmt.Errorf("metric %s (%s) is not a per-layer metric with that unit", name, m.Unit)
		}
	}
	var absent []string
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
			absent = append(absent, m.name)
		}
	}
	detail("not on %s's path, reported as 0: %s", r.workload, strings.Join(absent, " "))
	return nil
}

// printHost records the host fingerprint: results from hosts that differ
// here are not comparable.
func printHost() {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"arch":       runtime.GOARCH,
		"os":         runtime.GOOS,
		"go":         runtime.Version(),
		"l2":         cacheSize(2),
		"l3":         cacheSize(3),
	}
	b, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", b)
}

// cacheSize reads cpu0's unified cache size at the given level from sysfs,
// or "unknown".
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		sz, err := os.ReadFile(dir + "size")
		if err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile, capped at 0.99, that leaves at
// least ten samples beyond it; with fewer than twenty samples no quantile
// above the median qualifies and the median is used.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

// latWindows is the number of consecutive stretches of a run whose tail
// quantiles are medianed into latency_p99_ms, given at least minPerWindow
// samples each.
const (
	latWindows   = 5
	minPerWindow = 20
)

// reportLatency sets latency_p50_ms and latency_p99_ms from per-operation
// latencies in seconds, in completion order, and prints which tail
// quantile the sample count supports. latency_p99_ms is the median over
// latWindows consecutive stretches of each stretch's tail quantile, so a
// burst of a shared host's load moves one stretch, not the result; with
// too few samples for that it is the tail quantile of the whole run.
func (r *run) reportLatency(lat []float64, what string) {
	r.set("latency_p50_ms", median(lat)*1e3, "ms")
	if len(lat) < latWindows*minPerWindow {
		q := tailQuantile(len(lat))
		r.set("latency_p99_ms", quantile(lat, q)*1e3, "ms")
		detail("latency of one %s: n=%d, latency_p99_ms reports q=%.3f of the whole run (the highest quantile <= 0.99 with >= 10 samples beyond it)",
			what, len(lat), q)
		return
	}
	per := len(lat) / latWindows
	q := tailQuantile(per)
	tails := make([]float64, latWindows)
	for w := range tails {
		tails[w] = quantile(lat[w*per:(w+1)*per], q)
	}
	r.set("latency_p99_ms", median(tails)*1e3, "ms")
	detail("latency of one %s: n=%d, latency_p99_ms is the median over %d stretches of n=%d of q=%.3f (the highest quantile <= 0.99 with >= 10 samples beyond it)",
		what, len(lat), latWindows, per, q)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
