package benchlab

import (
	"fmt"
	"time"

	"pochoir"
	"pochoir/internal/benchdef"
	"pochoir/internal/cachesim"
	"pochoir/internal/cilkview"
	"pochoir/internal/core"
	"pochoir/internal/profile"
	"pochoir/internal/stencils"
	"pochoir/internal/telemetry"
)

// telemetrySignal runs one additional instrumented repetition and returns
// the decomposition's RunStats summary. The repetition is separate from the
// wall-clock loop so instrumentation cost never pollutes the timing sample.
func telemetrySignal(f stencils.Factory, w benchdef.Workload, alg core.Algorithm) (*telemetry.Summary, error) {
	rec := telemetry.New()
	j := f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{Algorithm: alg, Telemetry: rec})
	j.Setup()
	pre := rec.Snapshot()
	if err := safeCompute(j); err != nil {
		return nil, err
	}
	sum := rec.Snapshot().Delta(pre).Summary()
	return &sum, nil
}

// profileSignal runs repetitions inside a continuous-profiling capture
// window and reduces the decoded attribution to the sentinel's hot-path
// shares. The quick-profile workloads finish in single-digit milliseconds —
// under the 100Hz sampler that is zero samples — so the window repeats
// fresh jobs until ~300ms have elapsed (one repetition when a single run
// already exceeds that). Best-effort: a capture failure (another CPU
// profile active, e.g. go test -cpuprofile) or an empty sample set yields
// nil, never an error — the other four signals stand on their own.
func profileSignal(f stencils.Factory, w benchdef.Workload, alg core.Algorithm) *ProfileSignal {
	p := profile.New(profile.Config{})
	rep, err := p.CaptureDuring(func() {
		deadline := time.Now().Add(300 * time.Millisecond)
		for {
			j := f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{Algorithm: alg})
			j.Setup()
			if safeCompute(j) != nil || !time.Now().Before(deadline) {
				return
			}
		}
	})
	if err != nil || rep == nil || rep.Samples == 0 {
		return nil
	}
	return &ProfileSignal{
		CPUSeconds:  rep.CPUSeconds,
		Samples:     rep.Samples,
		KernelShare: rep.KernelShare,
		WalkerShare: rep.WalkerShare,
		PhaseShares: rep.PhaseShares,
	}
}

func safeCompute(j stencils.Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	j.Compute()
	return nil
}

// engineWalker builds the walker geometry the engine itself would use for
// this benchmark — same slopes, the §4 unified periodic scheme, the paper's
// coarsening heuristic — so the analytical signals replay the decomposition
// the wall-clock repetitions actually executed.
func engineWalker(sh *pochoir.Shape, sizes []int, alg core.Algorithm) *core.Walker {
	d := len(sizes)
	w := &core.Walker{NDims: d, Algorithm: alg}
	for i := 0; i < d; i++ {
		w.Sizes[i] = sizes[i]
		w.Slopes[i] = sh.Slope(i)
		w.Reach[i] = sh.Reach(i)
		w.Periodic[i] = true // the §4 unified scheme treats every dim as periodic
	}
	tc, sc := pochoir.DefaultCoarsening(d)
	w.TimeCutoff = tc
	copy(w.SpaceCutoff[:], sc)
	return w
}

// cilkviewSignal replays the configuration through the work/span analyzer.
func cilkviewSignal(f stencils.Factory, w benchdef.Workload, alg core.Algorithm) cilkview.MetricsView {
	wk := engineWalker(f.Shape(), w.Sizes, alg)
	return cilkview.New(wk, cilkview.DefaultCosts()).Analyze(1, 1+w.Steps).View()
}

// traceScale caps the cache-trace box per dimensionality: the LRU model
// costs a map operation per access, so the trace replays a scaled-down copy
// of the workload (recorded in the signal) rather than the full grid. The
// caps keep each trace around a million accesses while leaving the grid
// large relative to the model cache, which is what shapes the miss ratio.
func traceScale(sizes []int, steps int) ([]int, int) {
	var side, st int
	switch d := len(sizes); {
	case d == 1:
		side, st = 4096, 64
	case d == 2:
		side, st = 96, 16
	case d == 3:
		side, st = 24, 8
	default:
		side, st = 10, 4
	}
	out := make([]int, len(sizes))
	for i, s := range sizes {
		out[i] = min(s, side)
	}
	return out, min(steps, st)
}

// cacheSignal replays the (scaled) workload's memory trace through the
// ideal-cache model in the engine's execution order and reports the miss
// ratio. The model geometry follows Fig. 10: a 4096-point cache with
// 8-point lines for 1D/2D, a 32768-point cache for 3D and above.
func cacheSignal(f stencils.Factory, w benchdef.Workload, alg core.Algorithm) (*CacheSignal, error) {
	sh := f.Shape()
	sizes, steps := traceScale(w.Sizes, w.Steps)
	m := benchdef.Fig10CacheM
	if sh.NDims >= 3 {
		m = benchdef.Fig10CacheM3D
	}
	c := cachesim.New(m, benchdef.Fig10CacheB)
	tr := cachesim.NewTracer(c, sh, sizes)
	if !alg.Recursive() {
		cachesim.TraceLoops(tr, steps)
	} else {
		if _, err := cachesim.TraceWalker(engineWalker(sh, sizes, alg), tr, steps); err != nil {
			return nil, err
		}
	}
	return &CacheSignal{Stats: c.Stats(), TracedSizes: sizes, TracedSteps: steps}, nil
}
