package pochoir_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/telemetry"
)

// counterValue returns the value of the counter sample name{labels} in the
// registry's snapshot, failing the test when it is absent.
func counterValue(t *testing.T, st metrics.Status, name string, labels map[string]string) int64 {
	t.Helper()
	for _, m := range st.Metrics {
		if m.Name != name || m.Value == nil || len(m.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			match = match && m.Labels[k] == v
		}
		if match {
			return int64(*m.Value)
		}
	}
	t.Fatalf("no sample %s%v", name, labels)
	return 0
}

// TestSinksAgree runs one stencil under every engine with every sink armed
// — telemetry, metrics, progress, and a private flight recorder that never
// wraps — and requires the sinks to count the same decomposition.
func TestSinksAgree(t *testing.T) {
	const X, Y, steps = 48, 48, 12
	for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
		t.Run(alg.String(), func(t *testing.T) {
			rec := pochoir.NewRecorder()
			reg := pochoir.NewMetrics()
			fr := pochoir.NewFlightRecorder(1 << 14)
			opts := pochoir.Options{
				Algorithm: alg, Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16},
				Telemetry: rec, Metrics: reg, FlightRecorder: fr,
			}
			st, _, kern := heatStencil(t, opts, X, Y, 5)
			if err := st.Run(steps, kern); err != nil {
				t.Fatal(err)
			}
			stats := *st.LastRunStats()
			if want := int64(steps * X * Y); stats.BasePoints != want {
				t.Fatalf("telemetry base points %d, want steps x volume %d", stats.BasePoints, want)
			}
			if alg != core.LOOPS && stats.Zoids() == stats.Bases {
				t.Fatal("workload made no cuts; the cut counters are untested")
			}

			ms := reg.Snapshot()
			expect := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s: %d, telemetry says %d", what, got, want)
				}
			}
			val := func(name string, kv ...string) int64 {
				t.Helper()
				labels := map[string]string{}
				for i := 0; i < len(kv); i += 2 {
					labels[kv[i]] = kv[i+1]
				}
				return counterValue(t, ms, name, labels)
			}
			expect("pochoir_zoids_total", val("pochoir_zoids_total"), stats.Zoids())
			expect("time cuts", val("pochoir_cuts_total", "kind", "time"), stats.TimeCuts)
			expect("hyperspace cuts", val("pochoir_cuts_total", "kind", "hyperspace"), stats.HyperCuts)
			expect("space_serial cuts", val("pochoir_cuts_total", "kind", "space_serial"), stats.SpaceCuts+stats.CircleCuts)
			expect("interior bases", val("pochoir_base_cases_total", "clone", "interior"), stats.InteriorBases)
			expect("boundary bases", val("pochoir_base_cases_total", "clone", "boundary"), stats.BoundaryBases())
			expect("base points", val("pochoir_base_points_total"), stats.BasePoints)
			expect("engine points", val("pochoir_engine_points_total", "engine", alg.String()), stats.BasePoints)
			expect("spawned forks", val("pochoir_forks_total", "placement", "spawned"), stats.Spawns)
			expect("inlined forks", val("pochoir_forks_total", "placement", "inlined"), stats.Inlines)

			progs := reg.ProgressSnapshot()
			if len(progs) != 1 {
				t.Fatalf("%d progress entries, want 1", len(progs))
			}
			expect("progress points", progs[0].PointsDone, stats.BasePoints)

			events := fr.Snapshot()
			if total := fr.TotalRecorded(); total != uint64(len(events)) {
				t.Fatalf("flight ring wrapped: %d recorded, %d readable", total, len(events))
			}
			var bases, interior, points, cuts int64
			for _, ev := range events {
				switch ev.Kind {
				case flight.EvBase:
					bases++
					interior += ev.A2 & 1
					points += ev.A2 >> 1
				case flight.EvCut:
					cuts++
				}
			}
			expect("flight bases", bases, stats.Bases)
			expect("flight interior bases", interior, stats.InteriorBases)
			expect("flight base points", points, stats.BasePoints)
			expect("flight cuts", cuts, stats.Zoids()-stats.Bases)
		})
	}
	t.Run("supervised", testSupervisorSinksAgree)
}

// testSupervisorSinksAgree resumes a spilling supervised run whose kernel
// fails twice in one segment, so the run resumes, spills, retries, restores
// and degrades, and requires every sink to count each decision kind as the
// RunReport does: the telemetry recorder, the flight recorder's EvSup
// stamps, the pochoir_sup_* and pochoir_resume_* counters, and the trace's
// segment/attempt spans and markers.
func testSupervisorSinksAgree(t *testing.T) {
	const X, Y, steps, segSteps = 32, 32, 12, 3
	dir := t.TempDir()
	spillHeat2D(t, dir, X, Y, 2*segSteps, segSteps, 5) // newest entry: step 3

	rec := pochoir.NewRecorder()
	reg := pochoir.NewMetrics()
	fr := pochoir.NewFlightRecorder(1 << 14)
	active := pochoir.NewTracer(pochoir.TracerConfig{}).StartTrace("sinks", pochoir.TraceContext{})
	st, _, heat := heatStencil(t, pochoir.Options{
		Telemetry: rec, Metrics: reg, FlightRecorder: fr, Trace: active,
	}, X, Y, 5)
	var fails atomic.Int32
	kern := pochoir.K2(func(tt, x, y int) {
		if tt == 8 && x == 0 && y == 0 && fails.Add(1) <= 2 {
			panic("injected")
		}
		heat(tt, []int{x, y})
	})
	rep, err := st.ResumeSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64, BaseDelay: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	count := func(kinds []telemetry.SupKind) map[telemetry.SupKind]int64 {
		n := map[telemetry.SupKind]int64{}
		for _, k := range kinds {
			n[k]++
		}
		return n
	}
	var repKinds, recKinds, flightKinds []telemetry.SupKind
	for _, ev := range rep.Events {
		repKinds = append(repKinds, ev.Kind)
	}
	for _, ev := range rec.SupervisorEvents() {
		recKinds = append(recKinds, ev.Kind)
	}
	if total := fr.TotalRecorded(); total != uint64(len(fr.Snapshot())) {
		t.Fatalf("flight ring wrapped: %d recorded", total)
	}
	for _, ev := range fr.Snapshot() {
		if ev.Kind == flight.EvSup {
			flightKinds = append(flightKinds, telemetry.SupKind(ev.A0))
		}
	}
	want := count(repKinds)
	for _, k := range []telemetry.SupKind{telemetry.SupResume, telemetry.SupSpill,
		telemetry.SupSegmentFail, telemetry.SupRestore, telemetry.SupDegrade} {
		if want[k] == 0 {
			t.Fatalf("the run recorded no %v; report events %v", k, repKinds)
		}
	}
	if rep.Retries != 2 {
		t.Fatalf("%d retries, want 2", rep.Retries)
	}

	ms := reg.Snapshot()
	val := func(name string, kv ...string) int64 {
		t.Helper()
		labels := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			labels[kv[i]] = kv[i+1]
		}
		return counterValue(t, ms, name, labels)
	}
	metricKinds := map[telemetry.SupKind]int64{
		telemetry.SupSegmentDone: val("pochoir_sup_segments_total", "outcome", "ok"),
		telemetry.SupSegmentFail: val("pochoir_sup_segments_total", "outcome", "failed"),
		telemetry.SupCheckpoint:  val("pochoir_sup_checkpoints_total"),
		telemetry.SupSpill:       val("pochoir_sup_spills_total", "outcome", "ok"),
		telemetry.SupRestore:     val("pochoir_sup_restores_total"),
		telemetry.SupDegrade:     val("pochoir_sup_degradations_total"),
		telemetry.SupBackoff:     val("pochoir_sup_retries_total"), // one retry per backoff
		telemetry.SupResume:      val("pochoir_resume_total", "outcome", "restored"),
	}

	// The trace: a span per segment and per attempt (the failed ones in
	// error status), and one marker per checkpoint, spill, restore,
	// degradation, backoff and resume.
	markers := map[string]telemetry.SupKind{
		"checkpoint": telemetry.SupCheckpoint, "spill": telemetry.SupSpill,
		"restore": telemetry.SupRestore, "degrade": telemetry.SupDegrade,
		"retry-backoff": telemetry.SupBackoff, "resume": telemetry.SupResume,
	}
	traceKinds := map[telemetry.SupKind]int64{
		telemetry.SupSegmentStart: 0, telemetry.SupSegmentDone: 0, telemetry.SupSegmentFail: 0,
	}
	for _, k := range markers {
		traceKinds[k] = 0
	}
	for _, sp := range active.Snapshot().Spans {
		switch {
		case strings.HasPrefix(sp.Name, "segment-"):
			traceKinds[telemetry.SupSegmentStart]++
			if sp.Status == "ok" {
				traceKinds[telemetry.SupSegmentDone]++
			}
		case strings.HasPrefix(sp.Name, "attempt-") && sp.Status == "error":
			traceKinds[telemetry.SupSegmentFail]++
		default:
			if k, ok := markers[sp.Name]; ok {
				traceKinds[k]++
			}
		}
	}

	for sink, got := range map[string]map[telemetry.SupKind]int64{
		"recorder": count(recKinds), "flight": count(flightKinds),
		"metrics": metricKinds, "trace": traceKinds,
	} {
		for k, n := range got {
			if n != want[k] {
				t.Errorf("%s counts %d %v, the report %d", sink, n, k, want[k])
			}
		}
	}
	// The recorder and flight ring see every kind, so no kind is missing
	// from them when their totals match too.
	if len(recKinds) != len(repKinds) || len(flightKinds) != len(repKinds) {
		t.Errorf("recorder %d and flight %d decisions, the report %d",
			len(recKinds), len(flightKinds), len(repKinds))
	}
}
