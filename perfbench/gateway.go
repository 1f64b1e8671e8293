package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pochoir"
	"pochoir/internal/compiler"
	"pochoir/internal/gateway"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/telemetry"
	"pochoir/internal/trace"
)

// The gateway runs as cmd/pochoird does by default: 2 workers, a queue of
// 16, 64-step supervised segments, tracing on at sample 0.05 and the
// profiler off. Tenant quotas are raised so that they never bind. The
// load is one closed-loop client, so one job is in flight at a time: with
// two clients on a 2-vCPU host, two interpreting workers, the garbage
// collector and the HTTP goroutines contend for the CPUs, and run-to-run
// throughput spread about twice as wide.
const (
	gwClients      = 1
	gwSegmentSteps = 64
	gwSample       = 0.05
	gwSetups       = 101 // gateway starts per run; setup_s is their median
	gwWaitMS       = 30000
	// warmOffset numbers the warm-up jobs apart from the measured ones, so
	// every measured load of one seed starts at the same job.
	warmOffset = 1 << 30
)

// gatewayConfig is the daemon's default configuration. capacity, when
// positive, sizes the retained-trace store (the traced run keeps every
// job's trace to build the ledger).
func gatewayConfig(seed int64, sample float64, capacity int) gateway.Config {
	cfg := gateway.Config{
		Workers:             2,
		QueueDepth:          16,
		TenantRate:          1e9,
		TenantBurst:         1 << 30,
		TenantMaxConcurrent: 16,
		Supervise:           pochoir.SupervisePolicy{SegmentSteps: gwSegmentSteps},
	}
	cfg.SLO.Interval = 10 * time.Second
	if sample > 0 {
		cfg.Trace = pochoir.NewTracer(pochoir.TracerConfig{Capacity: capacity, SampleProb: sample, Seed: seed})
	}
	return cfg
}

// server is a gateway behind its HTTP handler on a loopback test server.
type server struct {
	g   *gateway.Gateway
	srv *httptest.Server
	cli *http.Client
}

// startServer starts a gateway and waits until it answers /healthz.
func startServer(cfg gateway.Config) (*server, error) {
	g := gateway.New(cfg)
	s := &server{g: g, srv: httptest.NewServer(gateway.NewHandler(g))}
	s.cli = s.srv.Client()
	// A wedged gateway fails its jobs instead of hanging the run.
	s.cli.Timeout = 2 * gwWaitMS * time.Millisecond
	resp, err := s.cli.Get(s.srv.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("gateway healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("gateway healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	s.g.Close()
}

// jobRecord is one job's outcome as its client saw it.
type jobRecord struct {
	job        gwJob
	ok         bool   // accepted and finished in state done
	why        string // failure reason when !ok
	checksum   string
	traceID    string
	start, end time.Time
	admit      float64 // POST round trip, s
	queue, run float64 // from the terminal JobStatus, s
}

func (j jobRecord) latency() float64 { return j.end.Sub(j.start).Seconds() }

// do submits one job over HTTP and waits for its terminal status.
func (s *server) do(j gwJob) jobRecord {
	rec := jobRecord{job: j, start: time.Now()}
	body, _ := json.Marshal(gateway.Submission{Spec: j.spec.src, Sizes: j.sizes, Steps: j.steps, Seed: j.seed})
	req, _ := http.NewRequest("POST", s.srv.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "perfbench")
	st, code, err := s.call(req)
	rec.admit = since(rec.start)
	if err != nil || code != http.StatusAccepted {
		rec.why = fmt.Sprintf("POST /jobs: status %d, %v", code, err)
		rec.end = time.Now()
		return rec
	}
	id := st.ID
	for st.State != gateway.StateDone && st.State != gateway.StateFailed {
		req, _ := http.NewRequest("GET", s.srv.URL+"/jobs/"+id+"?wait_ms="+strconv.Itoa(gwWaitMS), nil)
		st, code, err = s.call(req)
		if err != nil || code != http.StatusOK {
			rec.why = fmt.Sprintf("GET /jobs/%s: status %d, %v", id, code, err)
			rec.end = time.Now()
			return rec
		}
	}
	rec.end = time.Now()
	rec.queue, rec.run = st.QueuedSeconds, st.RunSeconds
	rec.checksum, rec.traceID = st.Checksum, st.TraceID
	if st.State != gateway.StateDone {
		rec.why = "job failed: " + st.Error
		return rec
	}
	rec.ok = true
	return rec
}

func (s *server) call(req *http.Request) (*gateway.JobStatus, int, error) {
	resp, err := s.cli.Do(req)
	if err != nil {
		return &gateway.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st gateway.JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return &st, resp.StatusCode, err
		}
	}
	return &st, resp.StatusCode, nil
}

// load is a closed loop of gwClients clients, each sending its next job
// only after the previous one finished, for the given duration. Jobs are
// taken in order from the seeded draw, numbered from first.
func (s *server) load(seed int64, first int, d time.Duration) ([]jobRecord, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				rec := s.do(drawJob(seed, first+int(next.Add(1)-1)))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, since(start)
}

// warmUp runs one second of warm-up jobs (lazy set-up, caches) and
// verifies them; they are not measured.
func (r *run) warmUp(s *server) {
	recs, _ := s.load(r.seed, warmOffset, time.Second)
	r.verify(recs)
}

// verify checks every record against the plain-loop reference, outside
// the timed region.
func (r *run) verify(recs []jobRecord) {
	for _, rec := range recs {
		r.attempted++
		switch {
		case !rec.ok:
			r.failed++
			r.problem("%s %v x%d seed %d: %s", rec.job.spec.name, rec.job.sizes, rec.job.steps, rec.job.seed, rec.why)
		case rec.checksum != reference(rec.job):
			r.failed++
			r.problem("%s %v x%d seed %d: checksum %s, reference %s", rec.job.spec.name, rec.job.sizes,
				rec.job.steps, rec.job.seed, rec.checksum, reference(rec.job))
		}
	}
}

// throughput returns completed jobs and point updates per second over the
// whole load.
func throughput(recs []jobRecord, wall float64) (jobsPerS, mpts float64) {
	var n, pts float64
	for _, rec := range recs {
		if rec.ok {
			n++
			pts += rec.job.points()
		}
	}
	return n / wall, pts / wall / 1e6
}

// rateWindows is the number of equal stretches of the load whose rates
// are the throughput samples.
const rateWindows = 10

// windowThroughput is throughput as the median over rateWindows equal
// stretches of the load, each job counted in the stretch it finished in:
// a slow stretch of a shared host moves one sample, not the result.
func windowThroughput(recs []jobRecord, start time.Time, wall float64) (jobsPerS, mpts float64) {
	n := make([]float64, rateWindows)
	pts := make([]float64, rateWindows)
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		w := min(int(rec.end.Sub(start).Seconds()/wall*rateWindows), rateWindows-1)
		n[w]++
		pts[w] += rec.job.points()
	}
	width := wall / rateWindows
	for w := range n {
		n[w] /= width
		pts[w] /= width * 1e6
	}
	return median(n), median(pts)
}

// setupGateway starts the gateway gwSetups times and keeps the last one;
// it returns the median start time (gateway, listener, first healthz).
func setupGateway(cfg gateway.Config) (*server, float64, error) {
	var times []float64
	var s *server
	for i := 0; i < gwSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(cfg); err != nil {
			return nil, 0, err
		}
		times = append(times, since(t0))
	}
	return s, median(times), nil
}

func runGateway(r *run) error {
	if r.traced {
		return r.gatewayLayers()
	}
	s, setup, err := setupGateway(gatewayConfig(r.seed, gwSample, 0))
	if err != nil {
		return err
	}
	defer s.close()
	r.warmUp(s)
	start := time.Now()
	recs, wall := s.load(r.seed, 0, secs(r.seconds))
	r.verify(recs)
	jps, mpts := windowThroughput(recs, start, wall)
	var lat []float64
	var large int
	for _, rec := range recs {
		if rec.ok {
			lat = append(lat, rec.latency())
		}
		if rec.job.large {
			large++
		}
	}
	r.set("jobs_per_s", jps, "1/s")
	r.set("mpts", mpts, "Mpts/s")
	r.set("setup_s", setup, "s")
	r.reportLatency(lat, "gateway job (POST /jobs to terminal status)")
	detail("gateway-mix: %d jobs (%d large) in %.2fs with %d closed-loop clients", len(recs), large, wall, gwClients)
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// gatewayLayers is the traced run of gateway-mix. It measures the same job
// sequence on a gateway configured as in the end-to-end run and on one
// that keeps every job's trace, splits each traced job's latency along the
// gateway's own spans, and replays the jobs through the layers' public
// functions.
func (r *run) gatewayLayers() error {
	d := secs(r.seconds / 4)

	heap0 := heapAfterGC()
	plain, err := startServer(gatewayConfig(r.seed, gwSample, 0))
	if err != nil {
		return err
	}
	r.warmUp(plain)
	plainRecs, plainWall := plain.load(r.seed, 0, d)
	r.verify(plainRecs)
	// The retention defect: finished jobs are never pruned, and each keeps
	// its instance's grids.
	jobs := len(plain.g.JobList())
	retained := heapAfterGC() - heap0
	plain.close()
	r.set("gateway.retained_kb_per_job", retained/1024/float64(jobs), "KB")
	r.set("gateway.joblist_len", float64(jobs), "count")
	detail("gateway retention: JobList holds all %d jobs since start; heap %+.1f MB after them", jobs, retained/(1<<20))

	cfg := gatewayConfig(r.seed, 1, 1<<16)
	traced, err := startServer(cfg)
	if err != nil {
		return err
	}
	r.warmUp(traced)
	recs, wall := traced.load(r.seed, 0, d)
	traced.close()
	r.verify(recs)
	plainJPS, _ := throughput(plainRecs, plainWall)
	jps, _ := throughput(recs, wall)
	r.set("bench.trace_overhead", plainJPS/jps, "x")

	var admit, queue, run []float64
	for _, rec := range recs {
		if rec.ok {
			admit = append(admit, rec.admit)
			queue = append(queue, rec.queue)
			run = append(run, rec.run)
		}
	}
	r.setP50P99("gateway.admit_ms", admit)
	r.setP50P99("gateway.queue_ms", queue)
	r.setP50P99("gateway.run_ms", run)
	serverSecs := r.serverLedger(cfg.Trace, recs)

	if err := r.replay(recs, serverSecs); err != nil {
		return err
	}
	r.interpAndSupervisor(recs, secs(r.seconds/4))
	if err := r.gatewayObservability(secs(r.seconds / 6)); err != nil {
		return err
	}
	r.cachesimLayer()
	return nil
}

func (r *run) setP50P99(name string, xs []float64) {
	r.set(name+".p50", median(xs)*1e3, "ms")
	r.set(name+".p99", quantile(xs, tailQuantile(len(xs)))*1e3, "ms")
}

// serverLedger splits each traced job's latency along the gateway's own
// spans: the request reaching Submit, admission (compile, instance,
// initial condition), queue wait, the supervised run, and the result's
// delivery after the job's trace ends. The parts are measured by two
// instruments (the client's clock and the gateway's tracer, on one
// process clock); what they leave uncovered is the ledger gap. It records
// the benchmark's spans for each job and returns the summed server-side
// admission + run seconds.
func (r *run) serverLedger(tracer *trace.Tracer, recs []jobRecord) float64 {
	byID := map[string]*trace.Trace{}
	for _, t := range tracer.Traces() {
		byID[t.ID.String()] = t
	}
	at := func(ns int64) time.Time { return tracer.Epoch().Add(time.Duration(ns)) }
	parts := map[string]float64{}
	var total float64
	var delivery []float64
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		t := byID[rec.traceID]
		if t == nil {
			r.problem("job %d: the gateway kept no trace %q", rec.job.seed, rec.traceID)
			continue
		}
		id := fmt.Sprintf("job-%d", rec.job.seed)
		root := r.spans.reserve()
		rs := t.Find(t.Root)
		rStart, rEnd := at(rs.StartNS), at(rs.EndNS)
		r.spans.add(id, "http.request", root, rec.start, rStart)
		server := r.spans.reserve()
		for _, sp := range t.Spans {
			var part string
			switch sp.Name {
			case "admission":
				part = "admission"
			case "queue-wait":
				part = "queue"
			case "supervised-run":
				part = "run"
			case "compile":
				r.spans.add(id, "compiler.compile", server, at(sp.StartNS), at(sp.EndNS))
				continue
			default:
				continue
			}
			parts[part] += float64(sp.DurationNS()) / 1e9
			r.spans.add(id, "gateway."+part, server, at(sp.StartNS), at(sp.EndNS))
		}
		r.spans.fill(server, id, "gateway.job", root, rStart, rEnd)
		r.spans.add(id, "http.result", root, rEnd, rec.end)
		r.spans.fill(root, id, "job", 0, rec.start, rec.end)
		parts["request"] += rStart.Sub(rec.start).Seconds()
		parts["delivery"] += rec.end.Sub(rEnd).Seconds()
		delivery = append(delivery, rec.end.Sub(rEnd).Seconds())
		total += rec.latency()
	}
	r.setP50P99("gateway.result_ms", delivery)
	r.ledger("request + admission + queue + run + delivery (gateway spans) vs POST-to-result latency (client)", parts, total)
	return parts["admission"] + parts["run"]
}

// replayed is one job re-executed through the layers' public functions.
type replayed struct {
	compile, instance, supervised float64
	stats                         telemetry.Stats
	report                        *pochoir.RunReport
	checksum                      string
}

// replayJob runs the gateway's per-job pipeline directly: compile, build
// the instance and its initial condition, and run it supervised with the
// gateway's policy under a telemetry recorder.
func replayJob(j gwJob, reg *metrics.Registry) (replayed, error) {
	var out replayed
	t0 := time.Now()
	checked, _, err := compiler.CompileSourceStats(j.spec.src)
	t1 := time.Now()
	if err != nil {
		return out, fmt.Errorf("compile %s: %w", j.spec.name, err)
	}
	inst, err := newInstance(checked, j)
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	rec := telemetry.New()
	inst.Stencil.SetOptions(pochoir.Options{Metrics: reg, Telemetry: rec})
	rep, err := inst.Stencil.RunSupervised(context.Background(), j.steps, inst.Kernel(),
		pochoir.SupervisePolicy{SegmentSteps: gwSegmentSteps})
	if err != nil {
		return out, fmt.Errorf("supervised run %s: %w", j.spec.name, err)
	}
	t3 := time.Now()
	if out.checksum, err = finalChecksum(inst, j); err != nil {
		return out, err
	}
	out.compile, out.instance, out.supervised = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	out.stats, out.report = rec.Snapshot(), rep
	return out, nil
}

// newInstance allocates the job's arrays and writes its initial condition.
func newInstance(checked *compiler.Checked, j gwJob) (*compiler.Instance, error) {
	inst, err := checked.NewInstance(j.sizes...)
	if err != nil {
		return nil, fmt.Errorf("instance %s: %w", j.spec.name, err)
	}
	for ai, decl := range checked.Prog.Arrays {
		for t := 0; t < j.spec.depth; t++ {
			if err := inst.Arrays[decl.Name].CopyIn(t, initialSlot(j.seed, ai, t, j.volume())); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

func finalChecksum(inst *compiler.Instance, j gwJob) (string, error) {
	var slots [][]float64
	for _, decl := range inst.Checked.Prog.Arrays {
		for t := j.steps; t < j.steps+j.spec.depth; t++ {
			buf := make([]float64, j.volume())
			if err := inst.Arrays[decl.Name].CopyOut(t, buf); err != nil {
				return "", err
			}
			slots = append(slots, buf)
		}
	}
	return checksum(slots), nil
}

// replay re-executes the traced jobs through the public layer functions,
// gwClients at a time like the load, for the compile and instance costs
// and the walker counts of each supervised run. serverSecs is the
// gateway's own admission + run time for the same jobs under the HTTP
// load.
func (r *run) replay(recs []jobRecord, serverSecs float64) error {
	var ok []jobRecord
	for _, rec := range recs {
		if rec.ok {
			ok = append(ok, rec)
		}
	}
	reg := metrics.NewRegistry()
	outs := make([]replayed, len(ok))
	errs := make([]error, len(ok))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ok); i = int(next.Add(1) - 1) {
				outs[i], errs[i] = replayJob(ok[i].job, reg)
			}
		}()
	}
	wg.Wait()

	var compile, instance []float64
	var sumParts, busy, capacity float64
	var agg telemetry.Stats
	var segments, checkpoints int
	for i, o := range outs {
		if errs[i] != nil {
			return errs[i]
		}
		j := ok[i].job
		r.attempted++
		if o.checksum != ok[i].checksum {
			r.failed++
			r.problem("replay of %s seed %d: checksum %s, gateway %s", j.spec.name, j.seed, o.checksum, ok[i].checksum)
		}
		if want := int64(j.volume()) * int64(j.steps); o.stats.BasePoints != want {
			r.problem("replay of %s seed %d: core.base_points %d != steps x volume %d", j.spec.name, j.seed, o.stats.BasePoints, want)
		}
		compile = append(compile, o.compile)
		instance = append(instance, o.instance)
		sumParts += o.compile + o.instance + o.supervised
		busy += o.stats.BusyTotal().Seconds()
		capacity += o.supervised * float64(min(o.stats.Workers, runtime.GOMAXPROCS(0)))
		addStats(&agg, o.stats)
		segments += len(o.report.Segments)
		checkpoints += o.report.Checkpoints
	}

	// Walker counts must repeat exactly: replay the first jobs again.
	for i := 0; i < len(ok) && i < 8; i++ {
		again, err := replayJob(ok[i].job, reg)
		if err != nil {
			return err
		}
		if countsOf(again.stats) != countsOf(outs[i].stats) {
			r.problem("replay of %s seed %d: walker counts differ between two traced runs: %+v vs %+v",
				ok[i].job.spec.name, ok[i].job.seed, countsOf(outs[i].stats), countsOf(again.stats))
		}
	}

	n := float64(len(ok))
	r.set("compiler.compile_ms", median(compile)*1e3, "ms")
	r.set("compiler.instance_ms", median(instance)*1e3, "ms")
	r.set("resilience.segments", float64(segments)/n, "count")
	r.set("resilience.checkpoints", float64(checkpoints)/n, "count")
	r.setWalker(agg, n)
	// Most jobs run on one worker; the walker's share is the part of the
	// workers' time in each supervised run not spent in base cases.
	r.set("core.walker_share", 1-busy/capacity, "ratio")
	r.set("ledger.replay_share", sumParts/serverSecs, "ratio")
	detail("replay of %d jobs %d at a time: compile + instance + supervised run %.3fs = %.1f%% of the gateway's admission + run spans under the HTTP load",
		len(ok), gwClients, sumParts, 100*sumParts/serverSecs)
	return nil
}

// addStats accumulates the counters of one run.
func addStats(agg *telemetry.Stats, st telemetry.Stats) {
	agg.TimeCuts += st.TimeCuts
	agg.HyperCuts += st.HyperCuts
	agg.SpaceCuts += st.SpaceCuts
	agg.CircleCuts += st.CircleCuts
	agg.Bases += st.Bases
	agg.BasePoints += st.BasePoints
	agg.Spawns += st.Spawns
	agg.Inlines += st.Inlines
	for b, n := range st.BaseVolumeHist {
		agg.BaseVolumeHist[b] += n
	}
}

// setWalker reports the walker and scheduler counts per run, over n runs.
func (r *run) setWalker(agg telemetry.Stats, n float64) {
	r.set("core.zoids", float64(agg.Zoids())/n, "count")
	r.set("core.bases", float64(agg.Bases)/n, "count")
	r.set("core.base_points", float64(agg.BasePoints)/n, "count")
	r.set("core.base_vol_p50", agg.BaseVolumePercentile(0.5), "points")
	r.set("sched.spawns", float64(agg.Spawns)/n, "count")
	r.set("sched.inlines", float64(agg.Inlines)/n, "count")
}

// interpAndSupervisor measures the interpreter alone (Instance.Run) and the
// supervisor's cost over it (RunSupervised with the gateway policy ÷ Run),
// alternating which goes first, on the large jobs of the traced load.
func (r *run) interpAndSupervisor(recs []jobRecord, budget time.Duration) {
	var large []gwJob
	for _, rec := range recs {
		if rec.ok && rec.job.large {
			large = append(large, rec.job)
		}
	}
	if len(large) == 0 {
		r.problem("no large jobs in the traced load")
		return
	}
	var tRun, tSup, pts float64
	stop := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(stop); i++ {
		j := large[(i/2)%len(large)]
		checked, err := compiler.CompileSource(j.spec.src)
		if err != nil {
			r.problem("compile %s: %v", j.spec.name, err)
			return
		}
		for k := 0; k < 2; k++ {
			inst, err := newInstance(checked, j)
			if err != nil {
				r.problem("%v", err)
				return
			}
			t0 := time.Now()
			if supervised := (i+k)%2 == 1; supervised {
				inst.Stencil.SetOptions(pochoir.Options{})
				_, err = inst.Stencil.RunSupervised(context.Background(), j.steps, inst.Kernel(),
					pochoir.SupervisePolicy{SegmentSteps: gwSegmentSteps})
				tSup += since(t0)
			} else {
				err = inst.Run(j.steps, pochoir.Options{})
				tRun += since(t0)
				pts += j.points()
			}
			if err != nil {
				r.problem("%s run: %v", j.spec.name, err)
				return
			}
		}
	}
	r.set("compiler.interp_mpts", pts/tRun/1e6, "Mpts/s")
	r.set("resilience.overhead", tSup/tRun, "x")
}

// gatewayObservability runs the job mix in child processes with every
// observability layer on and with every layer off, alternating, and
// reports the ratio of job throughput off ÷ on. The flight recorder can
// only be switched off process-wide (POCHOIR_FLIGHT=off), hence the child
// processes. The gateway always keeps its metrics registry, and it takes
// no telemetry recorder, so "all on" here is flight + registry + trace at
// sample 1.0 + a capturing profiler.
func (r *run) gatewayObservability(each time.Duration) error {
	var on, off float64
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, mode := range []string{"obs-off", "obs-on"} {
			jps, err := r.childProbe(mode, each)
			if err != nil {
				return err
			}
			if mode == "obs-on" {
				on += jps
			} else {
				off += jps
			}
		}
	}
	r.set("observability.overhead", off/on, "x")
	detail("observability (child processes): jobs/s all off %.1f, all on %.1f; the gateway keeps its registry in both",
		off/rounds, on/rounds)
	return nil
}

func (r *run) childProbe(mode string, d time.Duration) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--probe", mode, "--seed", strconv.FormatInt(r.seed, 10),
		"--seconds", strconv.FormatFloat(d.Seconds(), 'f', -1, 64))
	cmd.Env = os.Environ()
	if mode == "obs-off" {
		cmd.Env = append(cmd.Env, "POCHOIR_FLIGHT=off")
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		JobsPerS float64 `json:"jobs_per_s"`
		Failed   int     `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("probe %s output: %w", mode, err)
	}
	if res.Failed != 0 {
		r.problem("probe %s: %d jobs failed verification", mode, res.Failed)
	}
	return res.JobsPerS, nil
}

// runProbe is the child side of gatewayObservability: obs-on runs the
// gateway with the flight recorder, tracing at sample 1.0 and a capturing
// profiler; obs-off (started with POCHOIR_FLIGHT=off) with no trace and no
// profiler.
func runProbe(mode string, seed int64, seconds float64) error {
	var cfg gateway.Config
	switch mode {
	case "obs-on":
		cfg = gatewayConfig(seed, 1, 0)
		cfg.Profiler = profile.New(profile.Config{Window: 200 * time.Millisecond, Interval: -1, HeapEvery: -1})
	case "obs-off":
		cfg = gatewayConfig(seed, 0, 0)
	default:
		return fmt.Errorf("unknown probe %q", mode)
	}
	s, err := startServer(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	child := &run{seed: seed, metrics: map[string]metric{}}
	child.warmUp(s)
	recs, wall := s.load(seed, 0, secs(seconds))
	child.verify(recs)
	jps, _ := throughput(recs, wall)
	b, _ := json.Marshal(map[string]any{"jobs_per_s": jps, "failed": child.failed})
	fmt.Println(string(b))
	return nil
}
