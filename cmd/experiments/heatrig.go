package main

import (
	"math"
	"math/rand"
	"time"

	"pochoir"
)

// heatRig is the Heat 2p workload the failure and supervision experiments
// (faults, resilience, durable, monitor, flight) share: a periodic X×Y grid
// and the paper's 5-point heat kernel. Each experiment keeps its own grid
// size and initial condition, so its printed numbers stay comparable from
// run to run.
type heatRig struct {
	X, Y int
	// Seed fills the initial grid from math/rand, row by row; Init, when
	// set, fills it from a formula instead.
	Seed int64
	Init func(x, y int) float64
	Opts pochoir.Options
}

var heatShape = pochoir.MustShape(2, [][]int{
	{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
})

// stencil builds a fresh stencil and its array holding the initial grid.
func (r heatRig) stencil() (*pochoir.Stencil[float64], *pochoir.Array[float64]) {
	st := pochoir.NewWithOptions[float64](heatShape, r.Opts)
	u := pochoir.MustArray[float64](heatShape.Depth(), r.X, r.Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	init := r.Init
	if init == nil {
		rng := rand.New(rand.NewSource(r.Seed))
		init = func(int, int) float64 { return rng.Float64() }
	}
	for x := 0; x < r.X; x++ {
		for y := 0; y < r.Y; y++ {
			u.Set(0, init(x, y), x, y)
		}
	}
	return st, u
}

// kernel is the heat update of u. fault, when non-nil, sees each point's
// new value before it is written and returns the value to write; it may
// panic to inject a kernel fault.
func (r heatRig) kernel(u *pochoir.Array[float64], fault func(t, x, y int, v float64) float64) pochoir.Kernel {
	const cx, cy = 0.125, 0.125
	return pochoir.K2(func(t, x, y int) {
		c := u.Get(t, x, y)
		v := c +
			cx*(u.Get(t, x+1, y)-2*c+u.Get(t, x-1, y)) +
			cy*(u.Get(t, x, y+1)-2*c+u.Get(t, x, y-1))
		if fault != nil {
			v = fault(t, x, y, v)
		}
		u.Set(t+1, v, x, y)
	})
}

// sum is the total heat of u at time t.
func (r heatRig) sum(u *pochoir.Array[float64], t int) float64 {
	var s float64
	for x := 0; x < r.X; x++ {
		for y := 0; y < r.Y; y++ {
			s += u.Get(t, x, y)
		}
	}
	return s
}

// agree is the verdict on two total-heat figures: "ok" within a relative
// 1e-9, "MISMATCH" otherwise.
func agree(got, want float64) string {
	if math.Abs(got-want) <= 1e-9*math.Abs(want) {
		return "ok"
	}
	return "MISMATCH"
}

// best times run three times (twice with -quick) and returns the fastest,
// like the paper's methodology.
func best(run func() time.Duration) time.Duration {
	reps := 3
	if *quick {
		reps = 2
	}
	b := run()
	for i := 1; i < reps; i++ {
		if d := run(); d < b {
			b = d
		}
	}
	return b
}
