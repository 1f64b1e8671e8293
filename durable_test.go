package pochoir_test

// Durable-checkpoint suite: the versioned wire round trip at the stencil
// level, the spill journal driven by RunSupervised, cross-process resume via
// ResumeSupervised — including corrupt/torn journal tails and cold starts —
// and the subprocess kill-harness: a child process SIGKILLed at a random
// point of a spilling supervised run, resumed in this process, with the
// final grid required to be bit-identical to an uninterrupted run.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/metrics"
	"pochoir/internal/telemetry"
)

// spillHeat2D runs a supervised heat run with durable spilling into dir and
// returns the stencil's final grid.
func spillHeat2D(t *testing.T, dir string, X, Y, steps, segSteps int, seed int64) *pochoir.RunReport {
	t.Helper()
	st, _, kern := heatStencil(t, pochoir.Options{}, X, Y, seed)
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEncodeDecodeCheckpointRoundTrip(t *testing.T) {
	const X, Y, steps, seed = 24, 24, 10, 3
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)

	// Run halfway, checkpoint, push through the wire, and restore into a
	// brand-new stencil that finishes the run.
	st, _, kern := heatStencil(t, pochoir.Options{}, X, Y, seed)
	if err := st.Run(steps/2, kern); err != nil {
		t.Fatal(err)
	}
	cp, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pochoir.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := pochoir.DecodeCheckpoint[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.StepsRun() != steps/2 {
		t.Fatalf("decoded checkpoint at step %d, want %d", cp2.StepsRun(), steps/2)
	}
	st2, u2, kern2 := heatStencil(t, pochoir.Options{}, X, Y, seed+1000) // different init: restore must overwrite it
	if err := st2.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	if err := st2.Run(steps-steps/2, kern2); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, u2, steps, want)
}

func TestDecodeCheckpointWrongElementType(t *testing.T) {
	const X, Y, seed = 8, 8, 3
	st, _, _ := heatStencil(t, pochoir.Options{}, X, Y, seed)
	cp, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pochoir.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := pochoir.DecodeCheckpoint[float32](&buf); err == nil {
		t.Fatal("decoding a float64 checkpoint as float32 succeeded; want element-type error")
	}
}

// TestResumeSupervisedContinuesInterruptedRun simulates the common crash
// shape without a subprocess: a spilling run is abandoned partway, and a
// fresh stencil resumes from the journal to the bit-exact final grid.
func TestResumeSupervisedContinuesInterruptedRun(t *testing.T) {
	const X, Y, steps, segSteps, seed = 32, 32, 12, 3, 11
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	dir := t.TempDir()

	// "Crash": run only the first 9 of 12 steps, then drop the stencil. The
	// journal's newest entry is the checkpoint before the last completed
	// segment (step 6).
	spillHeat2D(t, dir, X, Y, steps-segSteps, segSteps, seed)

	rec := pochoir.NewRecorder()
	reg := pochoir.NewMetrics()
	st, u, kern := heatStencil(t, pochoir.Options{Telemetry: rec, Metrics: reg}, X, Y, seed+1000) // fresh init: restore must overwrite it
	rep, err := st.ResumeSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.StepsRun() != steps {
		t.Fatalf("resumed stencil at step %d, want %d", st.StepsRun(), steps)
	}
	mustMatch(t, u, steps, want)
	if rep.Spills == 0 {
		t.Fatal("resumed run recorded no spills of its own")
	}

	// The resume decision must be observable: a SupResume event with the
	// restored cursor, and the restored-outcome counter.
	var resume *pochoir.SupervisorEvent
	for _, ev := range rec.SupervisorEvents() {
		if ev.Kind == telemetry.SupResume {
			ev := ev
			resume = &ev
		}
	}
	if resume == nil {
		t.Fatal("no SupResume event recorded")
	}
	if resume.Err != "" {
		t.Fatalf("resume fell back to cold start: %s", resume.Err)
	}
	if resume.Attempt != steps-2*segSteps {
		t.Fatalf("resumed from step %d, want %d", resume.Attempt, steps-2*segSteps)
	}
	sm := metrics.NewSupervisorMetrics(reg)
	if got := sm.ResumeRestored.Value(); got != 1 {
		t.Fatalf("resume_restored = %d, want 1", got)
	}
	if got := sm.ResumeCorrupt.Value(); got != 0 {
		t.Fatalf("resume_corrupt_entries = %d, want 0", got)
	}
}

// TestResumeSupervisedSkipsCorruptTail damages the journal's newest entry —
// a flipped byte and a truncation, the two disk-corruption shapes the CRCs
// exist for — and requires resume to fall back to the newest good entry and
// still reproduce the uninterrupted run bit-for-bit.
func TestResumeSupervisedSkipsCorruptTail(t *testing.T) {
	const X, Y, steps, segSteps, seed = 32, 32, 12, 3, 13
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)

	damages := map[string]func(t *testing.T, path string){
		"flipped-byte": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/3); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			spillHeat2D(t, dir, X, Y, steps-segSteps, segSteps, seed)
			ents, err := pochoir.ListSpillJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) < 2 {
				t.Fatalf("journal holds %d entries, need >= 2", len(ents))
			}
			newest := ents[len(ents)-1]
			damage(t, newest.Path)

			rec := pochoir.NewRecorder()
			reg := pochoir.NewMetrics()
			st, u, kern := heatStencil(t, pochoir.Options{Telemetry: rec, Metrics: reg}, X, Y, seed+1000)
			if _, err := st.ResumeSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
				SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64,
			}); err != nil {
				t.Fatal(err)
			}
			mustMatch(t, u, steps, want)

			sm := metrics.NewSupervisorMetrics(reg)
			if got := sm.ResumeCorrupt.Value(); got != 1 {
				t.Fatalf("resume_corrupt_entries = %d, want 1", got)
			}
			for _, ev := range rec.SupervisorEvents() {
				if ev.Kind == telemetry.SupResume {
					if ev.Err != "" {
						t.Fatalf("resume fell back to cold start: %s", ev.Err)
					}
					if ev.Attempt != newest.Steps-segSteps {
						t.Fatalf("resumed from step %d, want the pre-tail entry %d", ev.Attempt, newest.Steps-segSteps)
					}
				}
			}
		})
	}
}

// TestResumeSupervisedColdStart covers the two journal states with nothing
// to restore: an empty journal and one whose every entry is corrupt. Both
// must fall back to a full run from step zero and still match.
func TestResumeSupervisedColdStart(t *testing.T) {
	const X, Y, steps, segSteps, seed = 24, 24, 8, 2, 17
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)

	prepare := map[string]func(t *testing.T, dir string) int{
		"empty-journal": func(t *testing.T, dir string) int { return 0 },
		"all-corrupt": func(t *testing.T, dir string) int {
			spillHeat2D(t, dir, X, Y, steps, segSteps, seed)
			ents, err := pochoir.ListSpillJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if err := os.Truncate(e.Path, 7); err != nil {
					t.Fatal(err)
				}
			}
			return len(ents)
		},
	}
	for name, prep := range prepare {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			corrupt := prep(t, dir)

			rec := pochoir.NewRecorder()
			reg := pochoir.NewMetrics()
			st, u, kern := heatStencil(t, pochoir.Options{Telemetry: rec, Metrics: reg}, X, Y, seed)
			if _, err := st.ResumeSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
				SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64,
			}); err != nil {
				t.Fatal(err)
			}
			mustMatch(t, u, steps, want)

			var cold bool
			for _, ev := range rec.SupervisorEvents() {
				if ev.Kind == telemetry.SupResume && ev.Err != "" {
					cold = true
				}
			}
			if !cold {
				t.Fatal("no cold-start SupResume event recorded")
			}
			sm := metrics.NewSupervisorMetrics(reg)
			if got := sm.ResumeCold.Value(); got != 1 {
				t.Fatalf("resume cold_start = %d, want 1", got)
			}
			if got := sm.ResumeCorrupt.Value(); got != int64(corrupt) {
				t.Fatalf("resume_corrupt_entries = %d, want %d", got, corrupt)
			}
		})
	}
}

// Restore error paths: every rejection must happen before any array is
// mutated, so a failed Restore never leaves a half-restored stencil.
func TestRestoreErrorPaths(t *testing.T) {
	const X, Y, seed = 8, 8, 5

	snapshot := func(u *pochoir.Array[float64], tt int) []float64 {
		out := make([]float64, X*Y)
		if err := u.CopyOut(tt, out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("nil-checkpoint", func(t *testing.T) {
		st, _, _ := heatStencil(t, pochoir.Options{}, X, Y, seed)
		if err := st.Restore(nil); err == nil {
			t.Fatal("Restore(nil) succeeded")
		}
	})

	t.Run("array-count-mismatch-after-reregistration", func(t *testing.T) {
		st, u, _ := heatStencil(t, pochoir.Options{}, X, Y, seed)
		cp, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// A second array registered after the checkpoint: the checkpoint no
		// longer describes the stencil's full state.
		v := pochoir.MustArray[float64](st.Shape().Depth(), X, Y)
		v.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
		st.MustRegisterArray(v)
		before := snapshot(u, 0)
		if err := st.Restore(cp); err == nil {
			t.Fatal("Restore with mismatched array count succeeded")
		}
		after := snapshot(u, 0)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("failed Restore mutated array state at %d", i)
			}
		}
	})

	t.Run("shape-mismatch", func(t *testing.T) {
		st, _, _ := heatStencil(t, pochoir.Options{}, X, Y, seed)
		cp, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		st2, u2, _ := heatStencil(t, pochoir.Options{}, X*2, Y, seed)
		before := snapshot2(t, u2, 0, X*2*Y)
		if err := st2.Restore(cp); err == nil {
			t.Fatal("Restore of a checkpoint with different extents succeeded")
		}
		after := snapshot2(t, u2, 0, X*2*Y)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("failed Restore mutated array state at %d", i)
			}
		}
	})

	t.Run("restore-after-reset", func(t *testing.T) {
		const steps = 6
		want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
		st, u, kern := heatStencil(t, pochoir.Options{}, X, Y, seed)
		if err := st.Run(steps/2, kern); err != nil {
			t.Fatal(err)
		}
		cp, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// Reset rewinds the cursor to zero; Restore must re-establish both
		// the arrays and the cursor so the run completes exactly.
		st.Reset()
		if err := st.Restore(cp); err != nil {
			t.Fatalf("Restore after Reset: %v", err)
		}
		if st.StepsRun() != steps/2 {
			t.Fatalf("cursor at %d after Restore, want %d", st.StepsRun(), steps/2)
		}
		if err := st.Run(steps-steps/2, kern); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, u, steps, want)
	})
}

func snapshot2(t *testing.T, u *pochoir.Array[float64], tt, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	if err := u.CopyOut(tt, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// Kill-harness geometry, shared by the parent and the re-exec'd child.
const (
	crashX, crashY  = 32, 32
	crashSteps      = 32
	crashSegSteps   = 2
	crashSeed       = 99
	crashChildEnv   = "POCHOIR_CRASH_CHILD_DIR"
	crashChildMatch = "^TestCrashHarnessChild$"
)

// TestCrashHarnessChild is the kill-harness victim: it only runs when the
// harness re-execs the test binary with the journal directory in the
// environment, and it executes a spilling supervised run paced so the parent
// can SIGKILL it at a chosen point of its progress.
func TestCrashHarnessChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("kill-harness child; run via TestCrashRecoveryKillHarness")
	}
	st, u, _ := heatStencil(t, pochoir.Options{}, crashX, crashY, crashSeed)
	kern := pochoir.K2(func(tt, x, y int) {
		if x == 0 && y == 0 {
			// Pace the run (~2ms per time step at one corner point) so the
			// parent's poll loop can land a SIGKILL mid-flight. Sleeping
			// changes no arithmetic: the result stays bit-identical.
			time.Sleep(2 * time.Millisecond)
		}
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	if _, err := st.RunSupervised(context.Background(), crashSteps, kern, pochoir.SupervisePolicy{
		SegmentSteps: crashSegSteps, SpillDir: dir, SpillKeep: 64,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryKillHarness re-execs this test binary as a child running
// a spilling supervised run, SIGKILLs it once the journal shows progress
// past a randomly chosen step, then resumes from the journal in this process
// and requires the final grid to be bit-identical to an uninterrupted run —
// the end-to-end crash-recovery guarantee. A child that finishes before the
// kill lands is fine: resume then recomputes from the newest checkpoint and
// the assertion is unchanged.
func TestCrashRecoveryKillHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short")
	}
	want := unfaultedHeat2D(t, pochoir.Options{}, crashX, crashY, crashSteps, crashSeed)
	dir := t.TempDir()
	if base := os.Getenv("POCHOIR_CRASH_SOAK_DIR"); base != "" {
		// Under `make crash-soak` the journal lives outside t.TempDir and is
		// kept when the iteration fails, so CI can upload it as an artifact.
		var err error
		if dir, err = os.MkdirTemp(base, "journal-"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if !t.Failed() {
				os.RemoveAll(dir)
			}
		})
	}

	// Kill once the journal's newest entry reaches a random segment
	// boundary in [1, segments-1).
	segments := crashSteps / crashSegSteps
	targetStep := crashSegSteps * (1 + rand.Intn(segments-1))

	cmd := exec.Command(os.Args[0], "-test.run="+crashChildMatch, "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"="+dir,
		"POCHOIR_POSTMORTEM_DIR=off",
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	killed := false
	deadline := time.After(120 * time.Second)
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
wait:
	for {
		select {
		case err := <-done:
			// Child finished before the kill landed; it must have succeeded.
			if err != nil {
				t.Fatalf("child failed: %v\n%s", err, out.String())
			}
			break wait
		case <-deadline:
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("child never reached step %d; output:\n%s", targetStep, out.String())
		case <-poll.C:
			ents, err := pochoir.ListSpillJournal(dir)
			if err != nil || len(ents) == 0 {
				continue
			}
			if ents[len(ents)-1].Steps >= targetStep {
				_ = cmd.Process.Kill() // SIGKILL: no deferred cleanup, no atexit
				<-done
				killed = true
				break wait
			}
		}
	}
	t.Logf("kill harness: killed=%v targetStep=%d", killed, targetStep)

	ents, err := pochoir.ListSpillJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("child left no journal entries")
	}

	// The "fresh process": this one. A brand-new stencil with its own
	// (different) initial state resumes from the child's journal.
	st, u, kern := heatStencil(t, pochoir.Options{}, crashX, crashY, crashSeed)
	rep, err := st.ResumeSupervised(context.Background(), crashSteps, kern, pochoir.SupervisePolicy{
		SegmentSteps: crashSegSteps, SpillDir: dir, SpillKeep: 64,
	})
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	if st.StepsRun() != crashSteps {
		t.Fatalf("resumed stencil at step %d, want %d", st.StepsRun(), crashSteps)
	}
	if rep.StepsDone > crashSteps {
		t.Fatalf("resumed run reports %d steps done, more than the %d requested", rep.StepsDone, crashSteps)
	}
	mustMatch(t, u, crashSteps, want)
}
