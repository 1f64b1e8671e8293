package pochoir_test

// Supervised-resilience suite: the RunSupervised supervisor against the
// fault-injection harness — panics at both walker sites, watchdog
// deadlines, late-run faults, the engine degradation ladder, and shadow
// verification. Every recovered run must be bit-identical to an unfaulted
// one: each point update is a pure function of older time slots, so TRAP,
// STRAP, and LOOPS produce bitwise-equal floating-point results and a
// retried segment recomputes exactly what the faulted attempt would have.

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
	"pochoir/internal/telemetry"
)

// unfaultedHeat2D computes the bit-exact expected grid with a plain Run on
// a fresh stencil in the same regime.
func unfaultedHeat2D(t *testing.T, opts pochoir.Options, X, Y, steps int, seed int64) []float64 {
	t.Helper()
	faultpoint.DisarmAll()
	st, u, kern := heatStencil(t, opts, X, Y, seed)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, X*Y)
	if err := u.CopyOut(steps, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustMatch asserts got is bitwise-identical to want.
func mustMatch(t *testing.T, u *pochoir.Array[float64], steps int, want []float64) {
	t.Helper()
	got := make([]float64, len(want))
	if err := u.CopyOut(steps, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered run diverged at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunSupervisedFaultMatrix drives supervised runs through the injected
// failure modes of the hardened-execution harness and requires every one to
// complete bit-identically to an unfaulted run.
func TestRunSupervisedFaultMatrix(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 12, 17
	scenarios := []struct {
		name string
		opts pochoir.Options
		pol  pochoir.SupervisePolicy
		arm  func()
	}{
		{
			// An engine panic in the decomposition: one cut-site fire, so
			// the first retry of the failed segment succeeds. The cutoffs
			// force real cuts inside each 4-step segment — under the
			// defaults a 48x48x4 segment is a single base case and the
			// cut site is never reached.
			name: "panic-at-cut-site",
			opts: pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}},
			pol:  pochoir.SupervisePolicy{SegmentSteps: 4, BaseDelay: time.Microsecond},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteCut,
					faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 2, Times: 1})
			},
		},
		{
			// A kernel-adjacent panic at a base case, mid-run. The small
			// cutoffs yield many base cases per segment so After:5 lands
			// inside a segment.
			name: "panic-at-base-site",
			opts: pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}},
			pol:  pochoir.SupervisePolicy{SegmentSteps: 4, BaseDelay: time.Microsecond},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteBase,
					faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 5, Times: 1})
			},
		},
		{
			// Stalled base cases blow the per-segment watchdog; the stall
			// budget (3 fires) is consumed on the first attempt, so the
			// retry runs at full speed.
			name: "segment-timeout",
			opts: pochoir.Options{Serial: true, TimeCutoff: 1, SpaceCutoff: []int{16, 16}},
			pol: pochoir.SupervisePolicy{
				SegmentSteps:   4,
				SegmentTimeout: 50 * time.Millisecond,
				BaseDelay:      time.Microsecond,
				MaxAttempts:    5,
			},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteBase,
					faultpoint.Spec{Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth,
						Sleep: 20 * time.Millisecond, Times: 3})
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			want := unfaultedHeat2D(t, sc.opts, X, Y, steps, seed)
			st, u, kern := heatStencil(t, sc.opts, X, Y, seed)
			sc.arm()
			rep, err := st.RunSupervised(context.Background(), steps, kern, sc.pol)
			faultpoint.DisarmAll()
			if err != nil {
				t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
			}
			if rep.Retries < 1 {
				t.Fatalf("fault did not trigger a retry: %+v", rep)
			}
			if rep.StepsDone != steps || st.StepsRun() != steps {
				t.Fatalf("StepsDone = %d, want %d", rep.StepsDone, steps)
			}
			mustMatch(t, u, steps, want)
		})
	}
}

// TestRunSupervisedFaultAtEndOfRun is the acceptance scenario: a kernel
// panic beyond 90% progress costs one segment retry, not the run.
func TestRunSupervisedFaultAtEndOfRun(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 20, 23
	opts := pochoir.Options{Grain: 1}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, _ := heatStencil(t, opts, X, Y, seed)
	var tripped atomic.Bool
	kern := pochoir.K2(func(tt, x, y int) {
		if tt == steps-1 && tripped.CompareAndSwap(false, true) {
			panic("blown gasket at 95% progress")
		}
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 2, // 10 segments; the fault lands in the last one
		BaseDelay:    time.Microsecond,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if len(rep.Segments) != 10 || rep.Retries != 1 {
		t.Fatalf("segments = %d, retries = %d, want 10 and 1", len(rep.Segments), rep.Retries)
	}
	for i, seg := range rep.Segments[:9] {
		if seg.Attempts != 1 {
			t.Fatalf("segment %d re-ran (%d attempts); only the last may retry", i, seg.Attempts)
		}
	}
	if last := rep.Segments[9]; last.Attempts != 2 || len(last.Failures) != 1 {
		t.Fatalf("last segment = %+v, want exactly one failed attempt", last)
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedDegradesToLoops arms an unlimited cut-site panic: both
// recursive engines are broken, and only the LOOPS rung — which never
// decomposes — completes the run. Also the report/telemetry acceptance
// test: every decision must be visible in both.
func TestRunSupervisedDegradesToLoops(t *testing.T) {
	defer faultpoint.DisarmAll()
	const X, Y, steps, seed = 40, 40, 8, 31
	opts := pochoir.Options{Grain: 1}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	rec := pochoir.NewRecorder()
	st, u, kern := heatStencil(t, pochoir.Options{Grain: 1, Telemetry: rec}, X, Y, seed)
	faultpoint.Arm(faultpoint.SiteCut,
		faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		MaxAttempts:  6,
		DegradeAfter: 2,
		BaseDelay:    time.Microsecond,
	})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	if rep.FinalEngine != pochoir.EngineLoops || rep.Degradations != 2 {
		t.Fatalf("final engine %v after %d degradations, want LOOPS after 2", rep.FinalEngine, rep.Degradations)
	}
	if rep.Segments[0].Attempts != 5 || rep.Retries != 4 {
		t.Fatalf("attempts = %d, retries = %d, want 5 and 4", rep.Segments[0].Attempts, rep.Retries)
	}
	mustMatch(t, u, steps, want)

	// The decision log reached both the report and the recorder, with the
	// checkpoint, failure, restore, backoff, and degradation steps typed.
	if len(rep.Events) == 0 || len(rec.SupervisorEvents()) != len(rep.Events) {
		t.Fatalf("events: report %d, recorder %d", len(rep.Events), len(rec.SupervisorEvents()))
	}
	counts := map[string]int{}
	for _, ev := range rep.Events {
		counts[ev.Kind.String()]++
	}
	for kind, n := range map[string]int{
		"segment-start": 1, "checkpoint": 1, "segment-fail": 4,
		"restore": 4, "retry-backoff": 4, "degrade": 2, "segment-done": 1,
	} {
		if counts[kind] != n {
			t.Fatalf("event counts = %v, want %d %s", counts, n, kind)
		}
	}
	if st.Poisoned() {
		t.Fatal("stencil left poisoned after a recovered run")
	}
}

// TestLoopsEngineMatchesRecursive: the LOOPS rung is selectable as a plain
// Options.Algorithm and produces bit-identical results.
func TestLoopsEngineMatchesRecursive(t *testing.T) {
	const X, Y, steps, seed = 37, 29, 15, 5
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	st, u, kern := heatStencil(t, pochoir.Options{Algorithm: 2, Serial: true}, X, Y, seed)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedShadowVerifyCatchesCorruption: a kernel that silently
// corrupts one full sweep — no panic, no error — is caught by the shadow
// recompute, rolled back, and retried clean.
func TestRunSupervisedShadowVerifyCatchesCorruption(t *testing.T) {
	const X, Y, steps, seed = 32, 32, 8, 13
	opts := pochoir.Options{Serial: true}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, _ := heatStencil(t, opts, X, Y, seed)
	// Corrupt every point of the tt==1 sweep, exactly once: the counter
	// expires after X*Y applications, so the shadow recompute (and the
	// retry) see a clean kernel.
	var corrupted atomic.Int64
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		v := c +
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y)) +
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1))
		if tt == 1 && corrupted.Add(1) <= X*Y {
			v *= 2 // silent corruption: in-range, plausible, wrong
		}
		u.Set(tt+1, v, x, y)
	})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 4,
		BaseDelay:    time.Microsecond,
		Verify:       pochoir.VerifyPolicy{Enabled: true},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	if rep.VerifyMismatches != 1 {
		t.Fatalf("VerifyMismatches = %d, want 1", rep.VerifyMismatches)
	}
	if rep.Verified == 0 || rep.Retries != 1 {
		t.Fatalf("report = %+v, want a passed verify and one retry", rep)
	}
	if !rep.Segments[0].VerifyMismatch {
		t.Fatalf("segment 0 = %+v, want the mismatch recorded", rep.Segments[0])
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedHappyPathIsPlainRun: with checkpointing disabled and no
// faults, the supervisor adds bookkeeping only — same result, one segment,
// no checkpoint copies.
func TestRunSupervisedHappyPathIsPlainRun(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 10, 3
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	st, u, kern := heatStencil(t, pochoir.Options{}, X, Y, seed)
	rep, err := st.RunSupervised(context.Background(), steps, kern,
		pochoir.SupervisePolicy{NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != 0 || rep.Attempts != 1 || len(rep.Segments) != 1 {
		t.Fatalf("report = %+v, want one uncheckpointed attempt", rep)
	}
	mustMatch(t, u, steps, want)
}

// TestSupervisedSoakEnvFaults is the CI soak: when POCHOIR_FAULTPOINTS is
// set (e.g. walker/base=p:0.01), a supervised run must survive whatever the
// environment throws and still produce the bit-exact result. Skipped when
// the variable is empty.
func TestSupervisedSoakEnvFaults(t *testing.T) {
	env := os.Getenv(faultpoint.EnvVar)
	if env == "" {
		t.Skipf("%s not set", faultpoint.EnvVar)
	}
	defer faultpoint.DisarmAll()
	const X, Y, steps, seed = 64, 64, 24, 41
	// Small cutoffs force real decomposition so probabilistic faults at the
	// cut and base sites get many visits per segment to fire at.
	opts := pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed) // disarms first
	st, u, kern := heatStencil(t, opts, X, Y, seed)
	if err := faultpoint.ArmFromSpec(env); err != nil {
		t.Fatal(err)
	}
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 2,
		MaxAttempts:  10,
		BaseDelay:    time.Microsecond,
		MaxDelay:     time.Millisecond,
	})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("soak run failed: %v (report %+v)", err, rep)
	}
	t.Logf("soak: %d segments, %d retries, %d degradations, final engine %v",
		len(rep.Segments), rep.Retries, rep.Degradations, rep.FinalEngine)
	mustMatch(t, u, steps, want)
}

// TestSupervisedReportsConfiguredEngine: the first rung of the ladder runs
// Options.Algorithm, and the report, the decision log, and the post-mortem
// bundle must name that engine — not the default TRAP.
func TestSupervisedReportsConfiguredEngine(t *testing.T) {
	const X, Y, steps = 32, 32, 6
	t.Setenv("POCHOIR_POSTMORTEM_DIR", t.TempDir())
	for _, alg := range []core.Algorithm{core.STRAP, core.LOOPS} {
		t.Run(alg.String(), func(t *testing.T) {
			st, _, kern := heatStencil(t, pochoir.Options{Algorithm: alg}, X, Y, 3)
			rep, err := st.RunSupervised(context.Background(), steps, kern,
				pochoir.SupervisePolicy{SegmentSteps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.FinalEngine.String() != alg.String() {
				t.Fatalf("FinalEngine = %v, want %v", rep.FinalEngine, alg)
			}
			for _, seg := range rep.Segments {
				if seg.Engine.String() != alg.String() {
					t.Fatalf("segment %d ran %v, report says %v", seg.Index, alg, seg.Engine)
				}
			}
			for _, ev := range rep.Events {
				if ev.Engine != "" && ev.Engine != alg.String() {
					t.Fatalf("event %v names engine %q, want %q", ev.Kind, ev.Engine, alg)
				}
			}

			// A run that gives up on its first attempt bundles the report.
			st, _, _ = heatStencil(t, pochoir.Options{Algorithm: alg}, X, Y, 3)
			boom := pochoir.K2(func(tt, x, y int) { panic("boom") })
			if _, err := st.RunSupervised(context.Background(), steps, boom,
				pochoir.SupervisePolicy{MaxAttempts: 1}); err == nil {
				t.Fatal("panicking kernel completed")
			}
			inc := pochoir.LastIncident()
			if inc == nil || inc.Bundle == nil {
				t.Fatal("no post-mortem incident recorded")
			}
			var sup pochoir.RunReport
			if err := json.Unmarshal(inc.Bundle.Supervisor, &sup); err != nil {
				t.Fatal(err)
			}
			if len(sup.Segments) == 0 || sup.Segments[0].Engine.String() != alg.String() {
				t.Fatalf("post-mortem report segments %+v, want engine %v", sup.Segments, alg)
			}
		})
	}
}

// TestSupervisedLadderStartsAtConfiguredEngine: with no explicit ladder, a
// stencil degrades down the engine table from Options.Algorithm's row, so a
// STRAP run never retries STRAP as a "degradation" and a LOOPS run never
// climbs up to a recursive engine. An explicit EngineFull rung still stands
// for the configured algorithm.
func TestSupervisedLadderStartsAtConfiguredEngine(t *testing.T) {
	const X, Y, steps = 24, 24, 4
	t.Setenv("POCHOIR_POSTMORTEM_DIR", t.TempDir())
	for _, tc := range []struct {
		name         string
		alg          core.Algorithm
		ladder       []pochoir.SupervisorEngine
		attempts     string
		degradations int
	}{
		{"TRAP", core.TRAP, nil, "TRAP TRAP STRAP STRAP LOOPS LOOPS", 2},
		{"STRAP", core.STRAP, nil, "STRAP STRAP LOOPS LOOPS LOOPS LOOPS", 1},
		{"LOOPS", core.LOOPS, nil, "LOOPS LOOPS LOOPS LOOPS LOOPS LOOPS", 0},
		{"LOOPS-explicit-full", core.LOOPS, []pochoir.SupervisorEngine{pochoir.EngineFull, pochoir.EngineSTRAP},
			"LOOPS LOOPS STRAP STRAP STRAP STRAP", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _, _ := heatStencil(t, pochoir.Options{Algorithm: tc.alg}, X, Y, 3)
			boom := pochoir.K2(func(tt, x, y int) { panic("boom") })
			rep, err := st.RunSupervised(context.Background(), steps, boom, pochoir.SupervisePolicy{
				MaxAttempts: 6, DegradeAfter: 2, BaseDelay: time.Microsecond, Ladder: tc.ladder,
			})
			if err == nil {
				t.Fatal("panicking kernel completed")
			}
			var ran []string
			for _, ev := range rep.Events {
				if ev.Kind == telemetry.SupSegmentFail {
					ran = append(ran, ev.Engine)
				}
			}
			if got := strings.Join(ran, " "); got != tc.attempts || rep.Degradations != tc.degradations {
				t.Fatalf("attempts ran on [%s] with %d degradations, want [%s] with %d",
					got, rep.Degradations, tc.attempts, tc.degradations)
			}
		})
	}
}
