package core

import (
	"context"
	"errors"
	"runtime/pprof"

	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/telemetry"
	"pochoir/internal/zoid"
)

// Observer is the walker's one observability hook. Every walker event — run
// start and end, cut, base case, fork, cancellation, kernel panic — has one
// call site, which hands it to one Observer method; the method fans the
// event out to whichever sinks are armed. A nil *Observer records nothing:
// every method but worker (called only when an observer is set) is safe on
// nil. An Observer serves one run at a time.
type Observer struct {
	Rec    *telemetry.Recorder // per-worker span shards (cuts, bases, forks)
	Met    *metrics.RunMetrics // live counters a monitor scrapes mid-run
	Prog   *metrics.Progress   // executed points, for percent-complete/ETA
	Flight *flight.Recorder    // black-box event rings

	// Per-run state, set at run start: the running engine's point counter,
	// and the run's pprof label context, against which base re-labels each
	// kernel call phase=base/boundary while a profiling window is armed.
	enginePoints *metrics.Counter
	labels       context.Context
}

// runStart records a run of alg over home times [t0, t1) entering the
// engine and returns the root goroutine's telemetry shard.
func (o *Observer) runStart(lctx context.Context, alg Algorithm, t0, t1 int) *telemetry.Shard {
	if o == nil {
		return nil
	}
	o.labels = lctx
	o.Flight.Record(flight.EvRunStart, int64(alg), int64(t0), int64(t1))
	o.enginePoints = nil
	if m := o.Met; m != nil {
		m.RunsStarted.Inc()
		m.RunsActive.Inc()
		o.enginePoints = m.EnginePoints[alg] // Validate admitted alg
	}
	if o.Rec == nil {
		return nil
	}
	o.Rec.RunStarted()
	return o.Rec.Acquire()
}

// runEnd records the run returning err and releases the root shard, which
// closes any spans a failed run left open.
func (o *Observer) runEnd(sh *telemetry.Shard, err error) {
	if o == nil {
		return
	}
	if o.Rec != nil {
		o.Rec.Release(sh)
		o.Rec.RunFinished()
	}
	if m := o.Met; m != nil {
		m.RunsActive.Dec()
	}
	outcome := int64(0)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = 2
	default:
		outcome = 1
	}
	o.Flight.Record(flight.EvRunEnd, outcome, 0, 0)
	o.labels = nil
}

// cut records a cut of the given flight.Cut* kind and returns the telemetry
// span to end once its subzoids finish. arg is the zoid height (time), the
// number of dimensions cut (hyperspace), or the cut dimension (space,
// circle); fanout and levels describe a hyperspace cut's subzoids.
func (o *Observer) cut(sh *telemetry.Shard, kind, arg, fanout, levels int) int {
	if o == nil {
		return -1
	}
	if m := o.Met; m != nil {
		m.Zoids.Inc()
		switch kind {
		case flight.CutTime:
			m.TimeCuts.Inc()
		case flight.CutHyper:
			m.HyperCuts.Inc()
		default:
			m.SpaceCuts.Inc()
		}
	}
	o.Flight.Record(flight.EvCut, int64(kind), int64(arg), int64(fanout))
	if sh == nil {
		return -1
	}
	switch kind {
	case flight.CutTime:
		return sh.TimeCut(arg)
	case flight.CutHyper:
		return sh.HyperCut(arg, fanout, levels)
	}
	return sh.SpaceCut(arg, kind == flight.CutCircle)
}

// base records a base case over z and runs its clone, kern, inside the
// telemetry span.
func (o *Observer) base(z zoid.Zoid, sh *telemetry.Shard, interior bool, kern BaseFunc) {
	if o == nil {
		kern(z)
		return
	}
	vol := z.Volume()
	if fr := o.Flight; fr != nil {
		bit := int64(0)
		if interior {
			bit = 1
		}
		fr.Record(flight.EvBase,
			flight.PackPair(z.T0, z.T1), flight.PackPair(z.Lo[0], z.Hi[0]), vol<<1|bit)
	}
	if m := o.Met; m != nil {
		m.Zoids.Inc()
		if interior {
			m.BaseInterior.Inc()
		} else {
			m.BaseBoundary.Inc()
		}
		m.BasePoints.Add(vol)
		m.BaseVolume.Observe(vol)
		o.enginePoints.Add(vol)
	}
	if p := o.Prog; p != nil {
		p.Add(vol)
	}
	span := -1
	if sh != nil {
		span = sh.Base(vol, interior, z.Height())
	}
	if lc := o.labels; lc != nil && profile.Armed() {
		ls := profile.LabelsBoundary
		if interior {
			ls = profile.LabelsBase
		}
		pprof.Do(lc, ls, func(context.Context) { kern(z) })
	} else {
		kern(z)
	}
	sh.End(span)
}

// fork records a fork-join region of n tasks at depth. When parallel, the
// scheduler spawns all but the last task; otherwise it runs all n inline.
func (o *Observer) fork(sh *telemetry.Shard, n int, parallel bool, depth int) {
	if o == nil {
		return
	}
	spawned := 0
	if parallel {
		spawned = n - 1
	}
	if sh != nil {
		sh.Spawned(spawned)
		sh.Inlined(n - spawned)
	}
	if m := o.Met; m != nil {
		m.Spawns.Add(int64(spawned))
		m.Inlines.Add(int64(n - spawned))
		for i := 0; i < spawned; i++ {
			m.ForkDepth.Observe(int64(depth))
		}
	}
}

// worker runs a spawned task on its fresh goroutine, counted in the
// active-workers gauge and with its own (goroutine-private) telemetry shard,
// released even if walk panics.
func (o *Observer) worker(walk func(sh *telemetry.Shard)) {
	if m := o.Met; m != nil {
		m.ActiveWorkers.Inc()
		defer m.ActiveWorkers.Dec()
	}
	var sh *telemetry.Shard
	if o.Rec != nil {
		sh = o.Rec.Acquire()
		defer o.Rec.Release(sh)
	}
	walk(sh)
}

// cancel records the run's cancellation flag latching.
func (o *Observer) cancel() {
	if o != nil {
		o.Flight.Record(flight.EvCancel, 0, 0, 0)
	}
}

// kernelPanic records a panic in the base-case kernel over z.
func (o *Observer) kernelPanic(z zoid.Zoid) {
	if o != nil {
		o.Flight.Record(flight.EvPanic,
			flight.PackPair(z.T0, z.T1), flight.PackPair(z.Lo[0], z.Hi[0]), flight.PanicBase)
	}
}
