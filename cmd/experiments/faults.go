package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pochoir"
)

// runFaults demonstrates the hardened execution model on a parallel Heat 2D
// run: a kernel panic deep inside the recursion surfaces as a structured
// *pochoir.KernelPanicError naming the zoid that was executing (the process
// survives); the failed stencil is poisoned until restored from a
// checkpoint, after which a retry produces the same answer as an
// uninterrupted run; and a context deadline stops a long run within about
// one base case of the cancellation point.
func runFaults() {
	X, Y, steps := 256, 256, 64
	if *quick {
		X, Y, steps = 128, 128, 32
	}
	header(fmt.Sprintf("Faults: failure model on Heat 2p (%dx%d, %d steps)", X, Y, steps))

	rig := heatRig{X: X, Y: Y, Seed: 7}
	kernel := func(u *pochoir.Array[float64], poisonStep int) pochoir.Kernel {
		return rig.kernel(u, func(t, x, y int, v float64) float64 {
			if t == poisonStep && x == X/2 && y == Y/2 {
				panic(fmt.Sprintf("injected kernel fault at t=%d", t))
			}
			return v
		})
	}

	// Reference: an uninterrupted run.
	ref, refU := rig.stencil()
	if err := ref.Run(steps, kernel(refU, -1)); err != nil {
		fmt.Printf("reference run failed: %v\n", err)
		footer()
		return
	}
	refSum := rig.sum(refU, steps)

	// 1. Panic isolation: the fault fires mid-run on some worker goroutine;
	// the first panic wins, siblings drain, and Run returns it with the
	// zoid coordinates attached.
	st, u := rig.stencil()
	cp, _ := st.Checkpoint()
	err := st.Run(steps, kernel(u, steps/2))
	var kp *pochoir.KernelPanicError
	if errors.As(err, &kp) {
		fmt.Printf("panic isolation: Run returned *KernelPanicError (%v) from zoid t=[%d,%d)\n",
			kp.Value, kp.Zoid.T0, kp.Zoid.T1)
	} else {
		fmt.Printf("panic isolation: UNEXPECTED result %v\n", err)
	}
	fmt.Printf("poisoning: stencil poisoned=%v; rerun says: %v\n",
		st.Poisoned(), st.Run(steps, kernel(u, -1)))

	// 2. Checkpoint/restore: rewind to the pre-run snapshot and retry with
	// the fault gone; the answer must match the uninterrupted run.
	if err := st.Restore(cp); err != nil {
		fmt.Printf("restore failed: %v\n", err)
		footer()
		return
	}
	if err := st.Run(steps, kernel(u, -1)); err != nil {
		fmt.Printf("retry failed: %v\n", err)
		footer()
		return
	}
	retrySum := rig.sum(u, steps)
	fmt.Printf("checkpoint/restore: retry total heat %.6f vs uninterrupted %.6f  [%s]\n",
		retrySum, refSum, agree(retrySum, refSum))

	// 3. Cancellation: give a much longer run a short deadline and measure
	// how far past the deadline RunContext returns.
	st2, u2 := rig.stencil()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = st2.RunContext(ctx, steps*50, kernel(u2, -1))
	late := time.Since(start) - 25*time.Millisecond
	fmt.Printf("cancellation: RunContext returned %v, %.1fms after the deadline; poisoned=%v\n",
		err, float64(late.Microseconds())/1000, st2.Poisoned())
	footer()
}
