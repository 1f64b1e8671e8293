package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
)

// runResilience measures the supervised-run machinery on Heat 2D:
//
//  1. the happy-path overhead of RunSupervised with checkpointing disabled
//     (supervisor bookkeeping only; the 5%-of-Run acceptance number),
//  2. the cost of segmented checkpointing with no faults,
//  3. the recovery overhead when a kernel panic is injected at >90%
//     progress — the supervisor restores the last segment checkpoint and
//     retries, so the penalty is one segment plus one grid copy, not a
//     whole rerun,
//  4. the degradation ladder under a persistently broken decomposition
//     (unlimited cut-site panics: TRAP and STRAP both fail, LOOPS
//     completes), and
//  5. shadow verification catching a silently corrupted sweep.
//
// Every variant must finish with the same total heat as the uninterrupted
// reference run.
func runResilience() {
	X, Y, steps := 256, 256, 64
	if *quick {
		X, Y, steps = 128, 128, 32
	}
	header(fmt.Sprintf("Resilience: supervised runs on Heat 2p (%dx%d, %d steps)", X, Y, steps))

	rig := heatRig{X: X, Y: Y, Seed: 11}

	// Reference: plain Run.
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
	fmt.Printf("plain Run:                     %s\n", seconds(tRun))

	// 1. Happy path: supervisor on, checkpoints off.
	var happySum float64
	tHappy := best(func() time.Duration {
		st, u := rig.stencil()
		start := time.Now()
		if _, err := st.RunSupervised(context.Background(), steps, rig.kernel(u, nil),
			pochoir.SupervisePolicy{NoCheckpoint: true}); err != nil {
			panic(err)
		}
		d := time.Since(start)
		happySum = rig.sum(u, steps)
		return d
	})
	fmt.Printf("supervised, no checkpoints:    %s  (%+.1f%% vs Run)  [%s]\n",
		seconds(tHappy), 100*(tHappy.Seconds()/tRun.Seconds()-1), agree(happySum, refSum))

	// 2. Segmented checkpointing, no faults.
	segSteps := steps / 8
	var segSum float64
	var segRep *pochoir.RunReport
	tSeg := best(func() time.Duration {
		st, u := rig.stencil()
		start := time.Now()
		rep, err := st.RunSupervised(context.Background(), steps, rig.kernel(u, nil),
			pochoir.SupervisePolicy{SegmentSteps: segSteps})
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		segSum, segRep = rig.sum(u, steps), rep
		return d
	})
	fmt.Printf("supervised, %2d segments:       %s  (%+.1f%% vs Run, %d checkpoints)  [%s]\n",
		len(segRep.Segments), seconds(tSeg), 100*(tSeg.Seconds()/tRun.Seconds()-1),
		segRep.Checkpoints, agree(segSum, refSum))

	// 3. Recovery: a kernel panic at >90% progress. The supervisor pays one
	// segment recomputation instead of the whole run.
	crashAt := steps - steps/16 - 1
	var recSum float64
	var recRep *pochoir.RunReport
	tRec := best(func() time.Duration {
		st, u := rig.stencil()
		crashed := false
		kern := rig.kernel(u, func(t, x, y int, v float64) float64 {
			if t == crashAt && x == X/2 && y == Y/2 && !crashed {
				crashed = true
				panic("injected fault at >90% progress")
			}
			return v
		})
		start := time.Now()
		rep, err := st.RunSupervised(context.Background(), steps, kern,
			pochoir.SupervisePolicy{SegmentSteps: segSteps, BaseDelay: time.Microsecond})
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		recSum, recRep = rig.sum(u, steps), rep
		return d
	})
	fmt.Printf("fault at step %2d, recovered:   %s  (%+.1f%% vs Run, %d retry)  [%s]\n",
		crashAt, seconds(tRec), 100*(tRec.Seconds()/tRun.Seconds()-1),
		recRep.Retries, agree(recSum, refSum))

	// 4. Degradation ladder: unlimited cut-site panics break both recursive
	// engines; the serial checked-loops rung finishes the job.
	st, u := rig.stencil()
	faultpoint.Arm(faultpoint.SiteCut,
		faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth})
	rep, err := st.RunSupervised(context.Background(), steps, rig.kernel(u, nil),
		pochoir.SupervisePolicy{MaxAttempts: 6, DegradeAfter: 2, BaseDelay: time.Microsecond})
	faultpoint.DisarmAll()
	if err != nil {
		fmt.Printf("degradation ladder: UNEXPECTED failure: %v\n", err)
	} else {
		fmt.Printf("degradation ladder:            %d attempts, %d degradations, finished on %v  [%s]\n",
			rep.Attempts, rep.Degradations, rep.FinalEngine, agree(rig.sum(u, steps), refSum))
		for _, ev := range rep.Events {
			fmt.Printf("    %s\n", ev)
		}
	}

	// 5. Shadow verification: a silently corrupted sweep (wrong values, no
	// panic) is caught by the sampled recompute, rolled back, and retried.
	st, u = rig.stencil()
	var corrupt atomic.Int64
	kern := rig.kernel(u, func(t, x, y int, v float64) float64 {
		if t == 1 && corrupt.Add(1) <= int64(X*Y) {
			v *= 2
		}
		return v
	})
	rep, err = st.RunSupervised(context.Background(), steps, kern,
		pochoir.SupervisePolicy{
			SegmentSteps: segSteps,
			BaseDelay:    time.Microsecond,
			Verify:       pochoir.VerifyPolicy{Enabled: true},
		})
	if err != nil {
		fmt.Printf("shadow verification: UNEXPECTED failure: %v\n", err)
	} else {
		fmt.Printf("shadow verification:           %d mismatch caught, %d segments verified  [%s]\n",
			rep.VerifyMismatches, rep.Verified, agree(rig.sum(u, steps), refSum))
	}
	footer()
}
