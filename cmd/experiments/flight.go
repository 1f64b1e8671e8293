package main

// The flight experiment is the post-mortem acceptance check of the black-box
// flight recorder: a Heat 2D run is killed past 90% of its progress, and the
// experiment then asserts that the always-on recorder turned the death into
// a readable pochoir-postmortem/v1 bundle — parseable, cause-attributed to
// the failing zoid, with a non-empty recent event window holding the panic
// marker. It exits nonzero on any violation, so `make flight-smoke` can gate
// CI on it; the smoke target then renders the same bundle with cmd/blackbox.
//
// Fault placement has two modes:
//
//   - With POCHOIR_FAULTPOINTS set (the smoke target's mode), the armed
//     faultpoint kills the run. The experiment first disarms and runs the
//     workload clean to count its base cases, re-arms the spec, and measures
//     progress as base cases entered before death over that total — the
//     armed `after` count must put the fault past 90%.
//
//   - Otherwise the kernel itself panics at 92% of the time steps, and the
//     attributed zoid must cover that step.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
)

func flightFail(format string, args ...any) {
	fmt.Printf("  FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// flightHeat builds the experiment's Heat 2D workload against the process's
// default (always-on) flight recorder, with faultStep < 0 for a clean
// kernel.
func flightHeat(X, Y, faultStep int) (*pochoir.Stencil[float64], pochoir.Kernel) {
	rig := heatRig{X: X, Y: Y, Init: func(x, y int) float64 { return float64((x*31+y*17)%97) / 97 }}
	heat, u := rig.stencil()
	return heat, rig.kernel(u, func(t, x, y int, v float64) float64 {
		if t == faultStep && x == X/2 && y == Y/2 {
			panic("injected late-run fault")
		}
		return v
	})
}

func countKind(evs []pochoir.FlightEvent, k flight.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func runFlight() {
	X, Y, steps := 256, 256, 64
	if *quick {
		X, Y, steps = 128, 128, 32
	}
	envSpec := strings.TrimSpace(os.Getenv(faultpoint.EnvVar))
	header(fmt.Sprintf("Flight: black-box post-mortem of a late fault (Heat 2D %dx%d, %d steps)", X, Y, steps))
	if dir := os.Getenv(flight.DirEnvVar); dir != "" {
		fmt.Printf("bundle directory: %s\n", dir)
	} else {
		fmt.Printf("bundle directory: %s (default)\n", flight.DefaultDir())
	}
	flight.ResetLastIncident()
	if pochoir.DefaultFlightRecorder() == nil {
		flightFail("the default flight recorder is disabled (%s) — this experiment tests the always-on path", flight.EnvVar)
	}

	// Resize the default recorder so large that nothing wraps: the event
	// window then holds every base case, so progress-at-death is countable
	// from the bundle itself. Faultpoint trips land in the default recorder
	// (the observer hook is process-wide), which is also the recorder runs
	// fall back to — the exact always-on configuration being certified.
	const ring = 1 << 15
	faultStep := -1
	totalBases := 0
	if envSpec != "" {
		fmt.Printf("fault source: %s=%s\n", faultpoint.EnvVar, envSpec)
		// Calibration: the same workload, clean, to learn the base-case
		// total the armed `after` count is measured against.
		faultpoint.DisarmAll()
		flight.SetDefaultRing(ring)
		heat, kern := flightHeat(X, Y, -1)
		if err := heat.Run(steps, kern); err != nil {
			flightFail("calibration run: %v", err)
		}
		totalBases = countKind(pochoir.DefaultFlightRecorder().Snapshot(), flight.EvBase)
		fmt.Printf("calibration: %d base cases per clean run\n", totalBases)
		if err := faultpoint.ArmFromSpec(envSpec); err != nil {
			flightFail("re-arming %s: %v", faultpoint.EnvVar, err)
		}
		defer faultpoint.DisarmAll()
	} else {
		faultStep = steps * 92 / 100
		fmt.Printf("fault source: kernel panic at step %d (%d%% of %d steps)\n",
			faultStep, faultStep*100/steps, steps)
	}

	// A fresh default ring for the doomed run, so the bundle's window holds
	// only its own history.
	flight.SetDefaultRing(ring)
	heat, kern := flightHeat(X, Y, faultStep)
	start := time.Now()
	err := heat.Run(steps, kern)
	if err == nil {
		flightFail("faulted run returned nil")
	}
	var kp *pochoir.KernelPanicError
	if !errors.As(err, &kp) {
		flightFail("run died with %T, want *KernelPanicError: %v", err, err)
	}
	fmt.Printf("run died after %v: %v\n", time.Since(start).Round(time.Millisecond), err)

	inc := pochoir.LastIncident()
	if inc == nil {
		flightFail("no incident recorded")
	}
	b := inc.Bundle
	if inc.Path != "" {
		fmt.Printf("bundle written: %s\n", inc.Path)
		// Round-trip through the file exactly as cmd/blackbox does.
		rb, rerr := pochoir.ReadPostmortemBundle(inc.Path)
		if rerr != nil {
			flightFail("bundle does not parse: %v", rerr)
		}
		b = rb
	}
	if b == nil {
		flightFail("incident carries no bundle")
	}
	if b.Cause.Kind != "kernel-panic" {
		flightFail("cause = %q, want kernel-panic", b.Cause.Kind)
	}
	z := b.Cause.Zoid
	if z == nil {
		flightFail("failing zoid not attributed")
	}
	if len(b.Events) == 0 {
		flightFail("event window is empty")
	}
	if countKind(b.Events, flight.EvPanic) == 0 {
		flightFail("window holds no panic marker among %d events", len(b.Events))
	}

	// The >90%-progress acceptance check, per fault mode.
	if envSpec != "" {
		if countKind(b.Events, flight.EvFault) == 0 {
			flightFail("window holds no faultpoint trip")
		}
		var inj *faultpoint.Injected
		if !errors.As(err, &inj) {
			flightFail("panic value is not the injected faultpoint")
		}
		done := countKind(b.Events, flight.EvBase)
		progress := float64(done) / float64(totalBases)
		fmt.Printf("progress at death: %d/%d base cases (%.1f%%)\n", done, totalBases, 100*progress)
		if progress <= 0.90 {
			flightFail("fault fired at %.1f%% progress, want >90%% — retune the armed after= count", 100*progress)
		}
	} else {
		// The kernel writes home time faultStep+1; the attributed zoid must
		// cover it, placing the failure past the 90% mark.
		if z.T0 > faultStep+1 || faultStep+1 >= z.T1 {
			flightFail("zoid t=[%d,%d) does not cover the fault at t=%d", z.T0, z.T1, faultStep+1)
		}
	}
	fmt.Printf("bundle: cause=%s zoid=t[%d,%d)x%vx%v window=%d events (%d recorded)\n",
		b.Cause.Kind, z.T0, z.T1, z.Lo, z.Hi, len(b.Events), b.TotalEvents)

	fmt.Println("\nfinal events before death:")
	tail := 8
	if tail > len(b.Events) {
		tail = len(b.Events)
	}
	for _, ev := range b.Events[len(b.Events)-tail:] {
		fmt.Printf("  w%d  %s\n", ev.Worker, ev.Describe())
	}
	fmt.Println("\nflight-recorder post-mortem: OK")
}
