// Package core implements the paper's primary contribution: the TRAP
// cache-oblivious parallel stencil algorithm with hyperspace cuts (§3),
// together with the STRAP baseline (Frigo–Strumpen-style serial space cuts)
// used for the Fig. 9/10 comparisons, base-case coarsening (§4), the
// interior/boundary code-clone dispatch (§4), and the unified
// periodic/nonperiodic scheme via virtual coordinates (§4).
//
// The engine is purely geometric: it decomposes space-time into zoids and
// invokes user-supplied base-case functions on them. The stencil-specific
// work — both the generic checked Phase-1 executor and the specialized
// Phase-2 kernels — lives behind the BaseFunc interface, so the same engine
// runs every stencil, every dimensionality, and every boundary regime.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"

	"pochoir/internal/engine"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
	"pochoir/internal/profile"
	"pochoir/internal/sched"
	"pochoir/internal/telemetry"
	"pochoir/internal/zoid"
)

func init() {
	// Feed the always-on flight recorder from the two layers it cannot
	// import directly without hooks: injected faultpoint trips and panics
	// first captured at scheduler sync points. Both record into the
	// process-wide default recorder — the black box is per process, not per
	// run — and both are nil-safe no-ops when POCHOIR_FLIGHT=off.
	faultpoint.SetObserver(func(site faultpoint.Site, depth int) {
		code := int64(0)
		if site == faultpoint.SiteBase {
			code = 1
		}
		flight.Default().Record(flight.EvFault, code, int64(depth), 0)
	})
	sched.SetPanicHook(func(pe *sched.PanicError) {
		if _, ok := pe.Value.(*KernelPanicError); ok {
			return // base() already recorded it with zoid attribution
		}
		flight.Default().Record(flight.EvPanic, 0, 0, flight.PanicSched)
	})
}

// KernelPanicError reports a panic recovered from a base-case kernel. The
// walker converts it (and any other panic reaching Run) into an ordinary
// error return: sibling tasks drain at their fork-join sync points
// (see sched.PanicError) and the process never dies. Value is the original
// panic value, Stack the panicking goroutine's stack, and Zoid the space-time
// trapezoid whose base case was executing — enough to reproduce the failing
// kernel application.
type KernelPanicError struct {
	Value any       // the value passed to panic
	Stack []byte    // stack of the panicking goroutine
	Zoid  zoid.Zoid // the base-case zoid being executed
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("core: kernel panic: %v (zoid t=[%d,%d) lo=%v hi=%v)",
		e.Value, e.Zoid.T0, e.Zoid.T1, e.Zoid.Lo[:e.Zoid.N], e.Zoid.Hi[:e.Zoid.N])
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *KernelPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// BaseFunc executes the base case of the recursion over zoid z: it must
// apply the stencil kernel to every space-time point of z, walking time
// steps in order and letting the spatial bounds advance by the zoid's
// slopes after each step (Fig. 2, lines 20–28).
//
// The interior clone receives only zoids whose kernel applications never
// touch an off-domain or wrapped grid point, so it may use unchecked
// accesses; the boundary clone receives everything else and must reduce
// virtual coordinates modulo the grid size and route off-domain accesses
// through the boundary function.
type BaseFunc func(z zoid.Zoid)

// Algorithm selects the decomposition strategy; the engines, their names
// and their properties are the rows of the engine table.
type Algorithm = engine.ID

// The engines, re-exported from the engine table.
const (
	TRAP  = engine.TRAP
	STRAP = engine.STRAP
	LOOPS = engine.LOOPS
)

// Walker runs a trapezoidal-decomposition stencil computation.
type Walker struct {
	NDims    int
	Slopes   [zoid.MaxDims]int  // stencil slopes sigma_i
	Reach    [zoid.MaxDims]int  // max |spatial offset| per dim (interior test)
	Sizes    [zoid.MaxDims]int  // spatial grid extents
	Periodic [zoid.MaxDims]bool // dims wrapped on a torus

	Interior BaseFunc // fast clone; nil falls back to Boundary
	Boundary BaseFunc // checked clone; required

	// Coarsening (§4). A zero TimeCutoff means 1 (recurse to single time
	// steps); zero SpaceCutoff entries mean uncoarsened space cuts.
	TimeCutoff  int
	SpaceCutoff [zoid.MaxDims]int

	// Grain is the minimum approximate zoid volume (height x product of
	// widths) for which subzoids are processed on fresh goroutines.
	// Zero means DefaultGrain. Serial disables parallelism entirely.
	Grain  int64
	Serial bool

	Algorithm Algorithm

	// Obs is the run's observer: telemetry, metrics, progress, and the
	// flight recorder all hang off it. Nil — the default — records
	// nothing.
	Obs *Observer

	// cancelled is the per-run cooperative cancellation flag, set by a
	// watcher goroutine when the RunContext context fires. It is nil for
	// non-cancellable runs, so the uncancellable fast path pays one
	// pointer comparison per zoid; cancellable runs pay one atomic load
	// per zoid, amortized over the zoid's whole point set — the walker
	// never checks inside a base case.
	cancelled *atomic.Bool
}

// DefaultGrain is the spawn threshold used when Walker.Grain is zero.
// Subproblems smaller than this run serially on the current goroutine;
// at ~10^4 points the per-spawn overhead (~1–2 microseconds for a goroutine
// plus WaitGroup) is well under 1% of the base-case work.
const DefaultGrain = 1 << 14

// Validate checks the configuration for obvious errors.
func (w *Walker) Validate() error {
	if w.NDims < 1 || w.NDims > zoid.MaxDims {
		return fmt.Errorf("core: NDims=%d out of range [1,%d]", w.NDims, zoid.MaxDims)
	}
	if w.Boundary == nil {
		return fmt.Errorf("core: Boundary base function is required")
	}
	if !w.Algorithm.Valid() {
		return fmt.Errorf("core: unknown algorithm %v", w.Algorithm)
	}
	for i := 0; i < w.NDims; i++ {
		if w.Sizes[i] <= 0 {
			return fmt.Errorf("core: size of dimension %d is %d", i, w.Sizes[i])
		}
		if w.Slopes[i] < 0 {
			return fmt.Errorf("core: negative slope in dimension %d", i)
		}
		if w.Reach[i] < w.Slopes[i] {
			// Reach defaults to slope when unset; a reach below the
			// slope is impossible for a valid shape.
			w.Reach[i] = w.Slopes[i]
		}
	}
	return nil
}

// Run executes the stencil for home times t in [t0, t1) over the full
// spatial grid, decomposing with the configured algorithm. It is
// RunContext with a background context: uncancellable, but still immune to
// kernel panics.
func (w *Walker) Run(t0, t1 int) error {
	return w.RunContext(context.Background(), t0, t1)
}

// RunContext is Run with cooperative cancellation and panic isolation.
//
// Cancellation: when ctx can be cancelled, a watcher goroutine latches an
// atomic flag on ctx.Done() and the recursion checks it once per zoid —
// at cut granularity, never inside a base case — so a cancelled or
// deadlined run returns ctx.Err() within about one base-case duration
// while the fast path stays one atomic load amortized over a whole zoid.
//
// Panic isolation: a panic in a base-case kernel is captured with its
// stack and zoid coordinates and returned as a *KernelPanicError; panics
// elsewhere in the engine return as *sched.PanicError. In both cases
// in-flight sibling tasks drain at their sync points and no goroutine is
// left running when RunContext returns.
//
// Either way the grid is left partially updated; callers that resume must
// restore a consistent state first (pochoir.Stencil does this with
// run-state poisoning and Checkpoint/Restore).
func (w *Walker) RunContext(ctx context.Context, t0, t1 int) (err error) {
	if err := w.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if t1 <= t0 {
		return nil
	}
	z := zoid.Box(t0, t1, w.Sizes[:w.NDims])

	// Label the run goroutine phase=walk, merged with whatever labels the
	// caller's context carries (the gateway's tenant/job/priority, the
	// supervisor's engine). Spawned worker goroutines inherit the label
	// set, so every CPU sample of the run self-attributes; the observer
	// overrides phase per base case while a capture window is armed.
	lctx := pprof.WithLabels(ctx, profile.LabelsWalk)
	pprof.SetGoroutineLabels(lctx)
	defer pprof.SetGoroutineLabels(ctx)

	// Registered before the other defers so it runs last (LIFO) and sees
	// the final error — after the recover below converted a panic and the
	// watcher promoted cancellation.
	o := w.Obs
	sh := o.runStart(lctx, w.Algorithm, t0, t1)
	defer func() { o.runEnd(sh, err) }()

	if done := ctx.Done(); done != nil {
		var flag atomic.Bool
		w.cancelled = &flag
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-done:
				flag.Store(true)
				o.cancel()
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watcher
			w.cancelled = nil
			// A cancelled walk returns without its own error; report
			// the context's. A panic error takes precedence: it names
			// the root cause.
			if err == nil && flag.Load() {
				err = ctx.Err()
			}
		}()
	}

	defer func() {
		if r := recover(); r != nil {
			err = panicToError(r)
		}
	}()

	if !w.Algorithm.Recursive() {
		w.runLoops(z, sh)
	} else {
		w.walk(z, sh, 0)
	}
	return nil
}

// runLoops is the LOOPS engine: every time step is swept as height-1 zoids
// chunked along dimension 0, each executed through base() — so interior/
// boundary dispatch, panic attribution, telemetry, and the base-site
// faultpoint behave exactly as in the recursive engines. Chunks of one time
// step only read older time slots, so sweeping them in order is correct;
// cancellation is checked once per chunk.
func (w *Walker) runLoops(z zoid.Zoid, sh *telemetry.Shard) {
	chunk := w.SpaceCutoff[0]
	if chunk < 1 {
		chunk = z.Hi[0] - z.Lo[0]
	}
	for t := z.T0; t < z.T1; t++ {
		for lo := z.Lo[0]; lo < z.Hi[0]; lo += chunk {
			if c := w.cancelled; c != nil && c.Load() {
				return
			}
			step := z
			step.T0, step.T1 = t, t+1
			step.Lo[0] = lo
			if hi := lo + chunk; hi < z.Hi[0] {
				step.Hi[0] = hi
			}
			w.base(step, sh, 0)
		}
	}
}

// panicToError converts a panic recovered at the top of a run into the
// error Run returns: *KernelPanicError survives scheduler wrapping, so a
// kernel panic that crossed fork-join sync points still surfaces as one;
// anything else becomes a *sched.PanicError.
func panicToError(r any) error {
	switch pe := r.(type) {
	case *KernelPanicError:
		return pe
	case *sched.PanicError:
		if kp, ok := pe.Value.(*KernelPanicError); ok {
			return kp
		}
		return pe
	default:
		// A panic outside any base case on the calling goroutine never
		// crossed a sync point, so the scheduler hook did not see it.
		flight.Default().Record(flight.EvPanic, 0, 0, flight.PanicSched)
		return &sched.PanicError{Value: r, Stack: debug.Stack()}
	}
}

// TimeCutoffEffective returns the base-case height threshold in effect.
func (w *Walker) TimeCutoffEffective() int {
	if w.TimeCutoff < 1 {
		return 1
	}
	return w.TimeCutoff
}

// CutSet collects into buf the hyperspace-cut candidates for z: every
// dimension along which a parallel space cut (or, for a still-complete
// periodic dimension, a circle cut) is allowed. It is exported so analytical
// replays of the decomposition (internal/cilkview, internal/cachesim) make
// exactly the decisions the execution engine makes.
func (w *Walker) CutSet(z zoid.Zoid, buf []zoid.Cut) []zoid.Cut {
	buf = buf[:0]
	for i := 0; i < w.NDims; i++ {
		s := w.Slopes[i]
		if w.Periodic[i] && z.IsFullCircle(i, w.Sizes[i]) {
			if z.CanCircleCut(i, s, w.Sizes[i], w.SpaceCutoff[i]) {
				buf = append(buf, zoid.Cut{Dim: i, Slope: s, Kind: zoid.CutCircle, Size: w.Sizes[i]})
			}
			continue
		}
		if z.CanSpaceCut(i, s, w.SpaceCutoff[i]) {
			buf = append(buf, zoid.Cut{Dim: i, Slope: s, Kind: zoid.CutTrisect})
		}
	}
	return buf
}

// approxVolume returns a cheap overestimate of the zoid's point count, used
// only for the spawn-grain decision.
func (w *Walker) approxVolume(z zoid.Zoid) int64 {
	v := int64(z.Height())
	for i := 0; i < w.NDims; i++ {
		wd := z.Width(i)
		if wd <= 0 {
			return 0
		}
		v *= int64(wd)
	}
	return v
}

func (w *Walker) grain() int64 {
	if w.Grain > 0 {
		return w.Grain
	}
	return DefaultGrain
}

// walk recursively decomposes and executes z (Fig. 2). sh is the telemetry
// shard of the current worker goroutine, nil when telemetry is disabled;
// depth is the decomposition depth (root zoid at 0), consumed by the
// cancellation-latency bound and the fault-injection sites.
func (w *Walker) walk(z zoid.Zoid, sh *telemetry.Shard, depth int) {
	// Cooperative cancellation, checked at cut granularity: once per zoid,
	// never inside a base case. Abandoning the zoid here is safe — the
	// run's results are discarded wholesale on cancellation.
	if c := w.cancelled; c != nil && c.Load() {
		return
	}
	var cutBuf [zoid.MaxDims]zoid.Cut
	cuts := w.CutSet(z, cutBuf[:0])
	if len(cuts) > 0 {
		if faultpoint.Armed() {
			faultpoint.Visit(faultpoint.SiteCut, depth)
		}
		switch w.Algorithm {
		case STRAP:
			w.spaceCutSerialDims(z, cuts[0], sh, depth)
		default:
			w.hyperspaceCut(z, cuts, sh, depth)
		}
		return
	}
	if h := z.Height(); h > w.TimeCutoffEffective() {
		if faultpoint.Armed() {
			faultpoint.Visit(faultpoint.SiteCut, depth)
		}
		lower, upper := z.TimeCut()
		span := w.Obs.cut(sh, flight.CutTime, h, 0, 0)
		w.walk(lower, sh, depth+1)
		w.walk(upper, sh, depth+1)
		sh.End(span)
		return
	}
	w.base(z, sh, depth)
}

// hyperspaceCut processes all subzoids level by level, each level in
// parallel (Fig. 2, lines 11–15).
func (w *Walker) hyperspaceCut(z zoid.Zoid, cuts []zoid.Cut, sh *telemetry.Shard, depth int) {
	lv := zoid.HyperspaceCut(z, cuts)
	span := w.Obs.cut(sh, flight.CutHyper, lv.NumCut, lv.Total(), len(lv.Zoids))
	parallel := !w.Serial && w.approxVolume(z) >= w.grain()
	for _, level := range lv.Zoids {
		w.walkAll(level, parallel, sh, depth+1)
	}
	sh.End(span)
}

// spaceCutSerialDims is the STRAP strategy: cut only along one dimension,
// process its pieces in the 2 parallel steps of Fig. 7, and let the
// recursion discover further cuttable dimensions one at a time.
func (w *Walker) spaceCutSerialDims(z zoid.Zoid, c zoid.Cut, sh *telemetry.Shard, depth int) {
	kind := flight.CutSpace
	if c.Kind == zoid.CutCircle {
		kind = flight.CutCircle
	}
	span := w.Obs.cut(sh, kind, c.Dim, 0, 0)
	parallel := !w.Serial && w.approxVolume(z) >= w.grain()
	if c.Kind == zoid.CutCircle {
		sub, _ := z.CircleCut(c.Dim, c.Slope, c.Size)
		w.walkAll(sub[0:2], parallel, sh, depth+1) // blacks
		w.walkAll(sub[2:4], parallel, sh, depth+1) // grays
	} else if sub, upright := z.SpaceCut(c.Dim, c.Slope); upright {
		w.walkAll([]zoid.Zoid{sub[0], sub[2]}, parallel, sh, depth+1)
		w.walk(sub[1], sh, depth+1)
	} else {
		w.walk(sub[1], sh, depth+1)
		w.walkAll([]zoid.Zoid{sub[0], sub[2]}, parallel, sh, depth+1)
	}
	sh.End(span)
}

// walkAll processes a set of mutually independent zoids. Tasks that sched
// runs on the calling goroutine keep the caller's shard; spawned tasks
// acquire their own (see task), which is what gives the trace one track
// per worker.
func (w *Walker) walkAll(zs []zoid.Zoid, parallel bool, sh *telemetry.Shard, depth int) {
	if len(zs) > 1 {
		w.Obs.fork(sh, len(zs), parallel, depth)
	}
	switch len(zs) {
	case 0:
	case 1:
		w.walk(zs[0], sh, depth)
	case 2:
		// Do2 contract: a is spawned, b runs on the calling goroutine.
		sched.Do2(parallel,
			w.task(zs[0], parallel, sh, depth),
			func() { w.walk(zs[1], sh, depth) })
	default:
		// DoAll contract: the final function runs on the calling goroutine.
		fns := make([]func(), len(zs))
		for i := range zs {
			zz := zs[i]
			if i == len(zs)-1 {
				fns[i] = func() { w.walk(zz, sh, depth) }
			} else {
				fns[i] = w.task(zz, parallel, sh, depth)
			}
		}
		sched.DoAll(parallel, fns)
	}
}

// task wraps a subwalk that the scheduler may run on a fresh goroutine;
// when it does, the observer brackets the goroutine (see Observer.worker).
func (w *Walker) task(z zoid.Zoid, parallel bool, sh *telemetry.Shard, depth int) func() {
	if o := w.Obs; o != nil && parallel {
		return func() { o.worker(func(sh *telemetry.Shard) { w.walk(z, sh, depth) }) }
	}
	return func() { w.walk(z, sh, depth) }
}

// base dispatches z to the interior or boundary clone (§4, code cloning).
// A panic in the clone — a crashing user kernel — is re-raised as a
// *KernelPanicError carrying the stack and the zoid, so by the time it
// reaches Run's recover the failure is fully located. The recover costs one
// open-coded defer per base case, amortized over the zoid's whole point set.
func (w *Walker) base(z zoid.Zoid, sh *telemetry.Shard, depth int) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *KernelPanicError, *sched.PanicError:
				panic(r) // already located by a nested region
			}
			w.Obs.kernelPanic(z)
			panic(&KernelPanicError{Value: r, Stack: debug.Stack(), Zoid: z})
		}
	}()
	// The faultpoint fires inside the recover scope: an injected base-site
	// panic surfaces exactly like a crashing kernel, zoid coordinates
	// included.
	if faultpoint.Armed() {
		faultpoint.Visit(faultpoint.SiteBase, depth)
	}
	interior := w.Interior != nil && w.IsInterior(z)
	kern := w.Boundary
	if interior {
		kern = w.Interior
	}
	w.Obs.base(z, sh, interior, kern)
}

// IsInterior reports whether every kernel application within z accesses
// only true in-domain grid points, so that the fast interior clone may be
// used: along each dimension the zoid's lifetime extremes, widened by the
// stencil's reach, must stay inside [0, size). Zoids in virtual (wrapped)
// coordinates fail this test and take the boundary clone, which performs
// the modulo reduction — this is what unifies periodic and nonperiodic
// boundary handling (§4).
func (w *Walker) IsInterior(z zoid.Zoid) bool {
	for i := 0; i < w.NDims; i++ {
		minLo, maxHi := z.Extremes(i)
		if minLo-w.Reach[i] < 0 || maxHi+w.Reach[i] > w.Sizes[i] {
			return false
		}
	}
	return true
}
