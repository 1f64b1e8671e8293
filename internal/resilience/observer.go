package resilience

import (
	"time"

	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/telemetry"
)

// Observer is the supervisor's one observability hook, the counterpart of
// the walker's core.Observer. Every decision has one call site, a record
// call, which appends the event to the run's Report, counts the Report
// tally and the pochoir_sup_* counter of its kind, stamps the flight and
// telemetry recorders, and grows the trace's segment/attempt spans. A value
// an event does not carry — a retry, a watchdog trip, spill bytes and time,
// corrupt journal entries — is counted on Met directly by whoever sees it.
// A nil sink records nothing; a nil *Observer records into the Report only.
type Observer struct {
	Rec    *telemetry.Recorder        // the typed SupEvent log
	Met    *metrics.SupervisorMetrics // live supervisor and resume counters
	Flight *flight.Recorder           // black-box EvSup stamps
	Spans  func(telemetry.SupEvent)   // live trace spans (trace.SupervisorSpans)

	// Per-run state, set by bind: the report decisions append to, and the
	// clock that stamps them relative to the run's start.
	rep   *Report
	clock Clock
	start time.Time
}

// bind returns a copy of o recording into rep, with Met defaulted to a set
// of nil counters so callers never check it.
func (o *Observer) bind(rep *Report, clock Clock) *Observer {
	b := &Observer{}
	if o != nil {
		*b = *o
	}
	if b.Met == nil {
		b.Met = &metrics.SupervisorMetrics{}
	}
	b.rep, b.clock, b.start = rep, clock, clock.Now()
	return b
}

// record hands one decision to every sink.
func (o *Observer) record(ev telemetry.SupEvent) {
	rep, m := o.rep, o.Met
	ev.TS = o.clock.Now().Sub(o.start).Nanoseconds()
	rep.Events = append(rep.Events, ev)
	switch ev.Kind {
	case telemetry.SupCheckpoint:
		rep.Checkpoints++
		m.Checkpoints.Inc()
	case telemetry.SupSpill:
		if ev.Err != "" {
			rep.SpillErrors++
			m.SpillErrors.Inc()
		} else {
			rep.Spills++
			m.Spills.Inc()
		}
	case telemetry.SupVerifyOK:
		rep.Verified++
		m.VerifyOK.Inc()
	case telemetry.SupVerifyMismatch:
		rep.VerifyMismatches++
		m.VerifyMismatch.Inc()
	case telemetry.SupRestore:
		rep.Restores++
		m.Restores.Inc()
	case telemetry.SupDegrade:
		rep.Degradations++
		m.Degradations.Inc()
	case telemetry.SupBackoff:
		rep.BackoffTotal += ev.Delay
		m.BackoffNS.Add(ev.Delay.Nanoseconds())
	case telemetry.SupSegmentFail:
		m.SegmentsFailed.Inc()
	case telemetry.SupSegmentDone:
		m.SegmentsDone.Inc()
	case telemetry.SupGiveUp:
		m.GiveUps.Inc()
	case telemetry.SupResume:
		if ev.Err != "" {
			m.ResumeCold.Inc()
		} else {
			m.ResumeRestored.Inc()
		}
	}
	o.Rec.Supervisor(ev) // the recorder restamps its copy with its own clock
	o.Flight.Record(flight.EvSup, int64(ev.Kind), int64(ev.Segment), int64(ev.Attempt))
	if o.Spans != nil {
		o.Spans(ev)
	}
}
