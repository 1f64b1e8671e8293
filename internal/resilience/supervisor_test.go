package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"pochoir/internal/telemetry"
)

// fakeClock is a deterministic Clock: Sleep records the request and
// advances virtual time instantly, WithTimeout records the deadline but
// never fires it. No supervisor test sleeps for real.
type fakeClock struct {
	now      time.Time
	sleeps   []time.Duration
	timeouts []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	return nil
}

func (c *fakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c.timeouts = append(c.timeouts, d)
	return context.WithCancel(ctx)
}

// noJitter is the base test policy: deterministic delays, fake clock.
func noJitter(clk *fakeClock) Policy {
	return Policy{
		BaseDelay:  10 * time.Millisecond,
		MaxDelay:   time.Second,
		Multiplier: 2,
		Jitter:     -1,
		Clock:      clk,
	}
}

type call struct {
	eng         Engine
	from, steps int
}

func TestSuperviseHappyPathSegments(t *testing.T) {
	clk := &fakeClock{}
	var calls []call
	checkpoints, restores := 0, 0
	d := Driver{
		Steps: 10,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			calls = append(calls, call{eng, from, steps})
			return nil
		},
		Checkpoint: func() error { checkpoints++; return nil },
		Restore:    func() error { restores++; return nil },
	}
	p := noJitter(clk)
	p.SegmentSteps = 3
	rep, err := Supervise(context.Background(), d, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []call{{EngineFull, 0, 3}, {EngineFull, 3, 3}, {EngineFull, 6, 3}, {EngineFull, 9, 1}}
	if len(calls) != len(want) {
		t.Fatalf("calls = %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
	if rep.StepsDone != 10 || rep.Attempts != 4 || rep.Retries != 0 ||
		rep.Checkpoints != 4 || checkpoints != 4 || restores != 0 ||
		rep.Degradations != 0 || rep.FinalEngine != EngineFull {
		t.Fatalf("report = %+v", rep)
	}
	if len(clk.sleeps) != 0 {
		t.Fatalf("happy path slept: %v", clk.sleeps)
	}
	if len(rep.Segments) != 4 || rep.Segments[3].FromStep != 9 || rep.Segments[3].Steps != 1 {
		t.Fatalf("segments = %+v", rep.Segments)
	}
}

func TestSuperviseZeroSteps(t *testing.T) {
	rep, err := Supervise(context.Background(), Driver{Steps: 0}, noJitter(&fakeClock{}))
	if err != nil || rep.StepsDone != 0 || len(rep.Segments) != 0 || len(rep.Events) != 0 {
		t.Fatalf("rep = %+v, err = %v", rep, err)
	}
}

func TestSuperviseRetryBackoffAndDegrade(t *testing.T) {
	clk := &fakeClock{}
	boom := errors.New("injected")
	fails := 2 // segment 0 fails twice, then succeeds
	var engines []Engine
	restores := 0
	d := Driver{
		Steps: 4,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			engines = append(engines, eng)
			if from == 0 && fails > 0 {
				fails--
				return boom
			}
			return nil
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { restores++; return nil },
	}
	p := noJitter(clk)
	p.SegmentSteps = 2
	p.MaxAttempts = 4
	p.DegradeAfter = 2
	rec := telemetry.New()
	d.Obs = &Observer{Rec: rec}
	rep, err := Supervise(context.Background(), d, p)
	if err != nil {
		t.Fatal(err)
	}
	// Attempts 1–2 on the full engine fail; the second failure triggers a
	// degradation, so attempt 3 and the following segment run on STRAP.
	wantEng := []Engine{EngineFull, EngineFull, EngineSTRAP, EngineSTRAP}
	for i := range wantEng {
		if engines[i] != wantEng[i] {
			t.Fatalf("engines = %v, want %v", engines, wantEng)
		}
	}
	if rep.Retries != 2 || rep.Restores != 2 || restores != 2 || rep.Degradations != 1 ||
		rep.FinalEngine != EngineSTRAP || rep.StepsDone != 4 {
		t.Fatalf("report = %+v", rep)
	}
	wantSleeps := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(clk.sleeps) != 2 || clk.sleeps[0] != wantSleeps[0] || clk.sleeps[1] != wantSleeps[1] {
		t.Fatalf("sleeps = %v, want %v", clk.sleeps, wantSleeps)
	}
	if rep.BackoffTotal != 30*time.Millisecond {
		t.Fatalf("BackoffTotal = %v", rep.BackoffTotal)
	}
	if got := rep.Segments[0].Failures; len(got) != 2 || got[0] != "injected" {
		t.Fatalf("failures = %v", got)
	}
	// The same decision log reached the recorder.
	if evs := rec.SupervisorEvents(); len(evs) != len(rep.Events) {
		t.Fatalf("recorder has %d events, report has %d", len(evs), len(rep.Events))
	}
	var kinds []telemetry.SupKind
	for _, ev := range rep.Events {
		if ev.Segment == 0 {
			kinds = append(kinds, ev.Kind)
		}
	}
	wantKinds := []telemetry.SupKind{
		telemetry.SupSegmentStart, telemetry.SupCheckpoint,
		telemetry.SupSegmentFail, telemetry.SupRestore, telemetry.SupBackoff,
		telemetry.SupSegmentFail, telemetry.SupRestore, telemetry.SupDegrade, telemetry.SupBackoff,
		telemetry.SupSegmentDone,
	}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("segment-0 kinds = %v, want %v", kinds, wantKinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("segment-0 kinds = %v, want %v", kinds, wantKinds)
		}
	}
}

func TestSuperviseWalksFullLadderThenGivesUp(t *testing.T) {
	clk := &fakeClock{}
	boom := errors.New("always broken")
	var engines []Engine
	d := Driver{
		Steps: 2,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			engines = append(engines, eng)
			return boom
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { return nil },
	}
	p := noJitter(clk)
	p.MaxAttempts = 6
	p.DegradeAfter = 2
	rep, err := Supervise(context.Background(), d, p)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the driver error", err)
	}
	wantEng := []Engine{EngineFull, EngineFull, EngineSTRAP, EngineSTRAP, EngineLoops, EngineLoops}
	if len(engines) != len(wantEng) {
		t.Fatalf("engines = %v, want %v", engines, wantEng)
	}
	for i := range wantEng {
		if engines[i] != wantEng[i] {
			t.Fatalf("engines = %v, want %v", engines, wantEng)
		}
	}
	if rep.Err == nil || rep.Degradations != 2 || rep.FinalEngine != EngineLoops || rep.StepsDone != 0 {
		t.Fatalf("report = %+v", rep)
	}
	last := rep.Events[len(rep.Events)-1]
	if last.Kind != telemetry.SupGiveUp || last.Err == "" {
		t.Fatalf("last event = %+v, want give-up", last)
	}
	// The ladder bottoms out at LOOPS: no rung below, so exactly 2
	// degradations despite 5 failures after the first.
	if len(clk.sleeps) != 5 {
		t.Fatalf("sleeps = %v, want 5 backoffs", clk.sleeps)
	}
}

func TestSuperviseNoCheckpointFailsFast(t *testing.T) {
	clk := &fakeClock{}
	boom := errors.New("unrecoverable")
	runs, checkpoints := 0, 0
	d := Driver{
		Steps: 4,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			runs++
			return boom
		},
		Checkpoint: func() error { checkpoints++; return nil },
		Restore:    func() error { t.Fatal("restore without checkpoint"); return nil },
	}
	p := noJitter(clk)
	p.NoCheckpoint = true
	rep, err := Supervise(context.Background(), d, p)
	if !errors.Is(err, boom) || runs != 1 || checkpoints != 0 ||
		rep.Checkpoints != 0 || rep.Retries != 0 || len(clk.sleeps) != 0 {
		t.Fatalf("err = %v, runs = %d, report = %+v", err, runs, rep)
	}
}

func TestSuperviseParentCancelStopsRetries(t *testing.T) {
	clk := &fakeClock{}
	ctx, cancel := context.WithCancel(context.Background())
	runs := 0
	d := Driver{
		Steps: 4,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			runs++
			cancel() // the parent gives up while the segment is failing
			return errors.New("crash")
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { t.Fatal("restored after parent cancel"); return nil },
	}
	rep, err := Supervise(ctx, d, noJitter(clk))
	if err == nil || runs != 1 || rep.Retries != 0 || len(clk.sleeps) != 0 {
		t.Fatalf("err = %v, runs = %d, report = %+v", err, runs, rep)
	}
}

func TestSuperviseWatchdogDeadlinePerAttempt(t *testing.T) {
	clk := &fakeClock{}
	fails := 1
	d := Driver{
		Steps: 2,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			if fails > 0 {
				fails--
				return context.DeadlineExceeded
			}
			return nil
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { return nil },
	}
	p := noJitter(clk)
	p.SegmentTimeout = 50 * time.Millisecond
	rep, err := Supervise(context.Background(), d, p)
	if err != nil {
		t.Fatal(err)
	}
	// One watchdog context per attempt, each with the configured deadline.
	if len(clk.timeouts) != 2 || clk.timeouts[0] != 50*time.Millisecond {
		t.Fatalf("timeouts = %v", clk.timeouts)
	}
	if rep.Retries != 1 || rep.StepsDone != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSuperviseVerifyMismatchRetries(t *testing.T) {
	clk := &fakeClock{}
	mismatch := &VerifyError{Segment: 0, Step: 2, Diff: 1}
	verifies, restores := 0, 0
	d := Driver{
		Steps: 4,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			return nil
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { restores++; return nil },
		Verify: func(ctx context.Context, segment, from, steps int) error {
			verifies++
			if verifies == 1 {
				return mismatch
			}
			return nil
		},
	}
	p := noJitter(clk)
	p.SegmentSteps = 2
	p.Verify = VerifyPolicy{Enabled: true}
	rep, err := Supervise(context.Background(), d, p)
	if err != nil {
		t.Fatal(err)
	}
	if verifies != 3 || rep.Verified != 2 || rep.VerifyMismatches != 1 ||
		rep.Retries != 1 || restores != 1 {
		t.Fatalf("verifies = %d, report = %+v", verifies, rep)
	}
	if !rep.Segments[0].VerifyMismatch || !rep.Segments[0].Verified {
		t.Fatalf("segment 0 = %+v", rep.Segments[0])
	}
}

func TestSuperviseVerifyEvery(t *testing.T) {
	clk := &fakeClock{}
	var verified []int
	d := Driver{
		Steps: 6,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			return nil
		},
		Checkpoint: func() error { return nil },
		Restore:    func() error { return nil },
		Verify: func(ctx context.Context, segment, from, steps int) error {
			verified = append(verified, segment)
			return nil
		},
	}
	p := noJitter(clk)
	p.SegmentSteps = 2
	p.Verify = VerifyPolicy{Enabled: true, Every: 2}
	if _, err := Supervise(context.Background(), d, p); err != nil {
		t.Fatal(err)
	}
	if len(verified) != 2 || verified[0] != 0 || verified[1] != 2 {
		t.Fatalf("verified segments = %v, want [0 2]", verified)
	}
}

func TestSuperviseVerifyForcesCheckpointing(t *testing.T) {
	clk := &fakeClock{}
	checkpoints := 0
	d := Driver{
		Steps: 2,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			return nil
		},
		Checkpoint: func() error { checkpoints++; return nil },
		Restore:    func() error { return nil },
		Verify: func(ctx context.Context, segment, from, steps int) error {
			return nil
		},
	}
	p := noJitter(clk)
	p.NoCheckpoint = true
	p.Verify = VerifyPolicy{Enabled: true}
	if _, err := Supervise(context.Background(), d, p); err != nil {
		t.Fatal(err)
	}
	if checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1 (verify needs the snapshot)", checkpoints)
	}
}

func TestSuperviseCheckpointFailureIsTerminal(t *testing.T) {
	boom := errors.New("disk full")
	d := Driver{
		Steps: 2,
		Run: func(ctx context.Context, eng Engine, from, steps int) error {
			t.Fatal("run after failed checkpoint")
			return nil
		},
		Checkpoint: func() error { return boom },
		Restore:    func() error { return nil },
	}
	rep, err := Supervise(context.Background(), d, noJitter(&fakeClock{}))
	if !errors.Is(err, boom) || rep.Err == nil {
		t.Fatalf("err = %v, report = %+v", err, rep)
	}
}
