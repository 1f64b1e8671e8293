package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/stencils"
	"pochoir/internal/telemetry"
	"pochoir/internal/trace"
)

// entry is one box of a library workload.
type entry struct {
	name  string
	sizes []int
	steps int
}

// lib-large: every pair of time buffers (67, 113 and 85 MB) is far above
// the per-core L2 and the 3D box is above the L3, so the kernel and cache
// locality do the work and the walker does little.
var libLarge = []entry{
	{"Heat 2p", []int{2048, 2048}, 64},
	{"3D 7-point", []int{192, 192, 192}, 32},
	{"Heat 4", []int{48, 48, 48, 48}, 16},
}

// lib-small: the quick-profile boxes on which the walker and scheduler do
// most of the non-kernel work (TRAP loses to LOOPS here).
var libSmall = []entry{
	{"Heat 4", []int{16, 16, 16, 16}, 8},
	{"3D 7-point", []int{48, 48, 48}, 16},
	{"Wave 3", []int{48, 48, 48}, 12},
}

func (e entry) volume() int64 {
	v := int64(1)
	for _, s := range e.sizes {
		v *= int64(s)
	}
	return v
}

func (e entry) points() float64 { return float64(e.volume()) * float64(e.steps) }

// slug turns an entry name into a metric-name component ("3D 7-point" →
// "3d_7-point").
func (e entry) slug() string { return strings.ToLower(strings.ReplaceAll(e.name, " ", "_")) }

// libEntry is an entry with its factory and verified reference.
type libEntry struct {
	entry
	f   stencils.Factory
	ref uint64 // hash of the LoopsSerial result
}

// pochoirJob builds a fresh instance for one Phase-2 run, so that nothing
// holds its grids once the run is verified.
func (e *libEntry) pochoirJob(opts pochoir.Options) stencils.Job {
	return e.f.New(e.sizes, e.steps).Pochoir(opts)
}

// hashResult fingerprints a result grid bit for bit (FNV-64a over the
// IEEE-754 bits of every value).
func hashResult(xs []float64) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 8*4096)
	for i, v := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		if len(buf) == cap(buf) || i == len(xs)-1 {
			_, _ = h.Write(buf)
			buf = buf[:0]
		}
	}
	return h.Sum64()
}

// timing is one timed execution of a stencils.Job.
type timing struct {
	setup, compute            float64
	start, mid, end, verified time.Time
	hash                      uint64
}

// variant is one way of running every entry: how to build the job and,
// optionally, what to wrap a whole pass in (a profiler capture).
type variant struct {
	job  func(e *libEntry) stencils.Job
	wrap func(pass func())
}

func plainVariant() variant {
	return optsVariant(func() pochoir.Options { return pochoir.Options{} })
}

func optsVariant(opts func() pochoir.Options) variant {
	return variant{job: func(e *libEntry) stencils.Job { return e.pochoirJob(opts()) }}
}

// timeJob runs a job, timing Setup and Compute separately; hashing the
// result happens after the timed region.
func timeJob(j stencils.Job) timing {
	var t timing
	t.start = time.Now()
	j.Setup()
	t.mid = time.Now()
	j.Compute()
	t.end = time.Now()
	t.setup = t.mid.Sub(t.start).Seconds()
	t.compute = t.end.Sub(t.mid).Seconds()
	t.hash = hashResult(j.Result())
	t.verified = time.Now()
	// Free the grids before the next allocation so the peak RSS is one
	// box, not two.
	runtime.GC()
	return t
}

// prepare looks up the workload's factories and computes each entry's
// reference: the LoopsSerial result, the plain serial loop nest the paper
// uses as its baseline.
func prepare(entries []entry) []*libEntry {
	out := make([]*libEntry, len(entries))
	for i, e := range entries {
		f, ok := stencils.Lookup(e.name)
		if !ok {
			panic("perfbench: unknown stencil " + e.name)
		}
		out[i] = &libEntry{entry: e, f: f}
		out[i].ref = timeJob(f.New(e.sizes, e.steps).LoopsSerial()).hash
	}
	return out
}

// passResult is one pass over every entry.
type passResult struct {
	setup, compute float64
	points         float64
	perEntry       []timing // indexed like the entries, not in run order
}

// pass runs every entry once, in an order drawn from rng, and checks each
// result against its reference.
func (r *run) pass(es []*libEntry, rng *rand.Rand, v variant, onEntry func(e *libEntry, t timing)) passResult {
	p := passResult{perEntry: make([]timing, len(es))}
	all := func() {
		for _, i := range rng.Perm(len(es)) {
			p.perEntry[i] = timeJob(v.job(es[i]))
		}
	}
	if v.wrap != nil {
		v.wrap(all)
	} else {
		all()
	}
	for i, e := range es {
		t := p.perEntry[i]
		r.attempted++
		if t.hash != e.ref {
			r.failed++
			r.problem("%s %v: result differs from the LoopsSerial reference", e.name, e.sizes)
		}
		p.setup += t.setup
		p.compute += t.compute
		p.points += e.points()
		if onEntry != nil {
			onEntry(e, t)
		}
	}
	return p
}

func runLib(r *run) error {
	entries := libLarge
	if r.workload == "lib-small" {
		entries = libSmall
	}
	rng := rand.New(rand.NewSource(r.seed))
	es := prepare(entries)
	r.pass(es, rng, plainVariant(), nil) // warm-up, verified but not measured
	if r.traced {
		return r.libLayers(es, rng)
	}

	// A pass (one Run of every box) is the library workloads' unit of
	// work: the job of jobs_per_s and latency, and the sample of every
	// median, which keeps a slow stretch of a shared host from moving the
	// result.
	var mpts, passSecs, setups []float64
	var compute float64
	stop := time.Now().Add(secs(r.seconds))
	for len(mpts) == 0 || time.Now().Before(stop) {
		p := r.pass(es, rng, plainVariant(), nil)
		mpts = append(mpts, p.points/p.compute/1e6)
		passSecs = append(passSecs, p.compute)
		setups = append(setups, p.setup)
		compute += p.compute
	}
	r.set("mpts", median(mpts), "Mpts/s")
	r.set("jobs_per_s", 1/median(passSecs), "1/s")
	r.set("setup_s", median(setups), "s")
	r.reportLatency(passSecs, "pass (one library Run of each box)")
	detail("%s: %d passes over %d entries, compute %.2fs, mpts per pass min %.1f max %.1f",
		r.workload, len(mpts), len(es), compute, quantile(mpts, 0), quantile(mpts, 1))
	return nil
}

// walkerCounts are the decomposition counts that must repeat exactly
// between two traced runs of one box.
type walkerCounts struct {
	zoids, bases, basePoints, spawns, inlines int64
}

func countsOf(st telemetry.Stats) walkerCounts {
	return walkerCounts{st.Zoids(), st.Bases, st.BasePoints, st.Spawns, st.Inlines}
}

// libLayers is the traced run of a library workload. It runs rounds of
// passes, one pass per variant in each round so that drift of the host
// hits every variant alike: untraced (the end-to-end configuration),
// traced with a telemetry recorder, the LOOPS engine, serial, the
// LoopsSerial baseline, and on lib-small every observability layer off
// and on.
func (r *run) libLayers(es []*libEntry, rng *rand.Rand) error {
	workers := float64(runtime.GOMAXPROCS(0))
	var traceRecs []*telemetry.Recorder
	variants := map[string]variant{
		"untraced": plainVariant(),
		"traced": optsVariant(func() pochoir.Options {
			rec := telemetry.New()
			traceRecs = append(traceRecs, rec)
			return pochoir.Options{Telemetry: rec}
		}),
		"loops":        optsVariant(func() pochoir.Options { return pochoir.Options{Algorithm: core.LOOPS} }),
		"serial":       optsVariant(func() pochoir.Options { return pochoir.Options{Serial: true} }),
		"loops_serial": {job: func(e *libEntry) stencils.Job { return e.f.New(e.sizes, e.steps).LoopsSerial() }},
	}
	order := []string{"untraced", "traced", "loops", "serial", "loops_serial"}
	if r.workload == "lib-small" {
		// Every observability layer off against every layer on, on the
		// walker-bound boxes where per-zoid hooks cost the most. A trace
		// is carried, but Options.Trace records only supervised runs.
		reg := metrics.NewRegistry()
		active := trace.New(trace.Config{SampleProb: 1}).StartTrace("perfbench", trace.Context{})
		defer active.End(trace.StatusOK)
		prof := profile.New(profile.Config{})
		variants["obs_off"] = optsVariant(func() pochoir.Options { return pochoir.Options{NoFlightRecorder: true} })
		variants["obs_on"] = variant{
			job: func(e *libEntry) stencils.Job {
				return e.pochoirJob(pochoir.Options{Metrics: reg, Telemetry: telemetry.New(), Trace: active})
			},
			wrap: func(pass func()) {
				if _, err := prof.CaptureDuring(pass); err != nil {
					r.problem("profiler capture: %v", err)
				}
			},
		}
		order = append(order, "obs_off", "obs_on")
	}

	// Mean compute seconds per pass of each variant.
	compute, passes := map[string]float64{}, map[string]float64{}
	mean := func(name string) float64 { return compute[name] / passes[name] }
	untracedPerEntry := make([]float64, len(es))
	var setups []float64
	var first [2][]walkerCounts
	var agg telemetry.Stats
	var busy, spent float64
	rounds := 0
	// Every variant runs in each round until the run's seconds are spent;
	// then untraced and traced passes alternate for half as long again, so
	// the boxes where LOOPS or serial passes are slow still get several
	// traced/untraced pairs for the ledger.
	for rounds < 2 || spent < 1.5*r.seconds {
		for _, name := range order {
			if spent >= r.seconds && rounds >= 1 && name != "untraced" && name != "traced" {
				continue
			}
			var p passResult
			switch name {
			case "traced":
				traceRecs = traceRecs[:0]
				p = r.tracedPass(es, rng, variants[name], rounds)
				counts := make([]walkerCounts, len(es))
				for _, rec := range traceRecs {
					st := rec.Snapshot()
					i := entryOf(es, st)
					if i < 0 {
						r.problem("core.base_points %d is not steps x volume of any entry", st.BasePoints)
						continue
					}
					counts[i] = countsOf(st)
					busy += st.BusyTotal().Seconds()
					addStats(&agg, st)
				}
				for i, e := range es {
					if counts[i].basePoints != e.volume()*int64(e.steps) {
						r.problem("%s: no traced run with core.base_points = steps x volume", e.name)
					}
				}
				if rounds < 2 {
					first[rounds] = counts
				}
			case "untraced":
				p = r.pass(es, rng, variants[name], nil)
				setups = append(setups, p.setup)
				for i, t := range p.perEntry {
					untracedPerEntry[i] += t.compute
				}
			default:
				p = r.pass(es, rng, variants[name], nil)
			}
			compute[name] += p.compute
			passes[name]++
			spent += p.setup + p.compute
		}
		rounds++
	}
	for i := range es {
		if first[0][i] != first[1][i] {
			r.problem("%s: walker counts differ between two traced runs: %+v vs %+v", es[i].name, first[0][i], first[1][i])
		}
	}

	nTraced := passes["traced"]
	for i, e := range es {
		r.set("stencils."+e.slug()+".mpts", e.points()*passes["untraced"]/untracedPerEntry[i]/1e6, "Mpts/s")
	}
	r.set("stencils.setup_s", median(setups), "s")
	r.set("stencils.kernel_busy_s", busy/nTraced, "s")
	r.set("stencils.speedup_vs_loops_serial", mean("loops_serial")/mean("untraced"), "x")
	r.set("core.walker_share", 1-busy/(compute["traced"]*workers), "ratio")
	r.setWalker(agg, nTraced)
	r.set("core.trap_over_loops", mean("loops")/mean("untraced"), "x")
	r.set("sched.parallel_speedup", mean("serial")/mean("untraced"), "x")
	r.set("bench.trace_overhead", mean("traced")/mean("untraced"), "x")
	if _, ok := variants["obs_on"]; ok {
		r.set("observability.overhead", mean("obs_on")/mean("obs_off"), "x")
	}

	// The ledger: kernel busy per worker plus the walker's remainder, from
	// the traced passes, against the untraced compute of the same boxes.
	kernel := busy / nTraced / workers
	r.ledger("kernel busy/worker + walker (traced) vs compute (untraced)",
		map[string]float64{"kernel": kernel, "walker": mean("traced") - kernel}, mean("untraced"))
	detail("%s: %d rounds; passes per variant %v", r.workload, rounds, passes)
	r.cachesimLayer()
	return nil
}

// tracedPass is one traced pass: the benchmark's spans bracket each
// entry's setup, compute and verification under the pass's span.
func (r *run) tracedPass(es []*libEntry, rng *rand.Rand, v variant, round int) passResult {
	passID := r.spans.reserve()
	passStart := time.Now()
	p := r.pass(es, rng, v, func(e *libEntry, t timing) {
		id := fmt.Sprintf("%s#%d", e.slug(), round)
		entryID := r.spans.reserve()
		r.spans.add(id, "stencils.setup", entryID, t.start, t.mid)
		r.spans.add(id, "stencils.run", entryID, t.mid, t.end)
		r.spans.add(id, "verify", entryID, t.end, t.verified)
		r.spans.fill(entryID, id, "entry", passID, t.start, t.verified)
	})
	r.spans.fill(passID, fmt.Sprintf("pass#%d", round), "pass", 0, passStart, time.Now())
	return p
}

// entryOf returns the entry whose steps x volume equals the run's base
// points (the known answer every traced run must meet), or -1.
func entryOf(es []*libEntry, st telemetry.Stats) int {
	for i, e := range es {
		if st.BasePoints == e.volume()*int64(e.steps) {
			return i
		}
	}
	return -1
}

// ledger reports how far the traced parts are from the measured total and
// whether they close within 5%.
func (r *run) ledger(what string, parts map[string]float64, total float64) {
	var sum float64
	for _, v := range parts {
		sum += v
	}
	gap := math.Abs(sum-total) / total
	r.set("ledger.gap", gap, "ratio")
	verdict := "closes"
	if gap > 0.05 {
		verdict = "DOES NOT close"
	}
	detail("ledger (%s): parts %v sum %.4fs, measured %.4fs, gap %.2f%% — %s within 5%%",
		what, parts, sum, total, 100*gap, verdict)
}
