package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pochoir"
)

// runDurable measures the durable-checkpoint machinery on Heat 2D:
//
//  1. the spill overhead — a segmented supervised run with SpillDir
//     (every checkpoint encoded to the versioned wire format and written
//     to the crash-safe journal via temp-file+rename) against the same
//     run spilling nothing; the acceptance criterion is <= 10% over
//     in-memory segmented checkpointing, and
//  2. a full crash-and-resume cycle: the run is killed by a persistent
//     kernel fault at ~60% progress, a fresh stencil resumes from the
//     newest journal entry via ResumeSupervised, and the final grid must
//     match the uninterrupted reference bit for bit.
//
// The journal lives in a throwaway temp directory; sizes and timings are
// printed so EXPERIMENTS.md can record the measured overhead.
func runDurable() {
	X, Y, steps := 256, 256, 64
	if *quick {
		X, Y, steps = 128, 128, 32
	}
	header(fmt.Sprintf("Durable checkpoints: spill overhead and crash resume on Heat 2p (%dx%d, %d steps)", X, Y, steps))

	rig := heatRig{X: X, Y: Y, Init: func(x, y int) float64 { return float64((x*37+y*23)%101) / 101 }}
	segSteps := steps / 8

	// Reference: plain Run, and the in-memory segmented baseline the spill
	// overhead is judged against.
	var refSum float64
	tRun := best(func() time.Duration {
		st, u := rig.stencil()
		start := time.Now()
		if err := st.Run(steps, rig.kernel(u, nil)); err != nil {
			panic(err)
		}
		d := time.Since(start)
		refSum = rig.sum(u, steps)
		return d
	})
	fmt.Printf("plain Run:                       %s\n", seconds(tRun))

	var segSum float64
	tSeg := best(func() time.Duration {
		st, u := rig.stencil()
		start := time.Now()
		if _, err := st.RunSupervised(context.Background(), steps, rig.kernel(u, nil),
			pochoir.SupervisePolicy{SegmentSteps: segSteps}); err != nil {
			panic(err)
		}
		d := time.Since(start)
		segSum = rig.sum(u, steps)
		return d
	})
	fmt.Printf("segmented, in-memory only:       %s  (%+.1f%% vs Run)  [%s]\n",
		seconds(tSeg), 100*(tSeg.Seconds()/tRun.Seconds()-1), agree(segSum, refSum))

	// 1. Spill overhead: same segmentation, every checkpoint also persisted.
	var spillSum float64
	var spillRep *pochoir.RunReport
	tSpill := best(func() time.Duration {
		dir, err := os.MkdirTemp("", "pochoir-durable-exp-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		st, u := rig.stencil()
		start := time.Now()
		rep, err := st.RunSupervised(context.Background(), steps, rig.kernel(u, nil),
			pochoir.SupervisePolicy{SegmentSteps: segSteps, SpillDir: dir})
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		spillSum, spillRep = rig.sum(u, steps), rep
		return d
	})
	overhead := 100 * (tSpill.Seconds()/tSeg.Seconds() - 1)
	verdict := "PASS"
	if overhead > 10 {
		verdict = "FAIL"
	}
	fmt.Printf("segmented + durable spill:       %s  (%+.1f%% vs in-memory; acceptance <=10%%: %s)  [%s]\n",
		seconds(tSpill), overhead, verdict, agree(spillSum, refSum))
	fmt.Printf("  %d spills, %d bytes journaled (%.0f KiB per checkpoint)\n",
		spillRep.Spills, spillRep.SpillBytes,
		float64(spillRep.SpillBytes)/float64(spillRep.Spills)/1024)

	// 2. Crash and resume: a persistent fault kills the spilling run at
	// ~60% progress; a fresh stencil resumes from the journal and must
	// reproduce the reference grid exactly.
	dir, err := os.MkdirTemp("", "pochoir-durable-exp-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	crashAt := steps * 6 / 10
	st, u := rig.stencil()
	broken := rig.kernel(u, func(t, x, y int, v float64) float64 {
		if t >= crashAt && x == X/2 && y == Y/2 {
			panic("injected persistent fault")
		}
		return v
	})
	_, err = st.RunSupervised(context.Background(), steps, broken,
		pochoir.SupervisePolicy{
			SegmentSteps: segSteps,
			MaxAttempts:  2,
			BaseDelay:    time.Millisecond,
			Ladder:       []pochoir.SupervisorEngine{pochoir.EngineFull},
			SpillDir:     dir,
		})
	if err == nil {
		panic("durable: expected the persistent fault to defeat supervision")
	}
	entries, lerr := pochoir.ListSpillJournal(dir)
	if lerr != nil || len(entries) == 0 {
		panic(fmt.Sprintf("durable: no journal to resume from (%v)", lerr))
	}
	newest := entries[len(entries)-1]

	st2, u2 := rig.stencil()
	start := time.Now()
	rep2, err := st2.ResumeSupervised(context.Background(), steps, rig.kernel(u2, nil),
		pochoir.SupervisePolicy{SegmentSteps: segSteps, SpillDir: dir})
	if err != nil {
		panic(err)
	}
	tResume := time.Since(start)
	fmt.Printf("crash at step %d, resume:         %s recomputing %d/%d steps from journal entry at step %d  [%s]\n",
		crashAt, seconds(tResume), rep2.StepsDone, steps, newest.Steps, agree(rig.sum(u2, steps), refSum))
	footer()
}
