package pochoir_test

import (
	"testing"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
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
}
