package main

import (
	"pochoir"
	"pochoir/internal/cachesim"
	"pochoir/internal/core"
	"pochoir/internal/stencils"
)

// The cache replay is computed, not measured: the Heat 2p shape on a 256²
// box for 16 steps through an ideal LRU cache of 4096 points with 8-point
// lines (the Fig. 10 geometry). The box is larger than the model cache
// and than the 2D base-case cutoff, so TRAP's locality must show as a
// lower miss ratio than LOOPS' row sweeps.
const (
	simSide  = 256
	simSteps = 16
	simM     = 4096
	simB     = 8
)

// cachesimLayer reports both miss ratios and checks the known answer
// (TRAP below LOOPS).
func (r *run) cachesimLayer() {
	sh := stencils.Heat2DShape()
	sizes := []int{simSide, simSide}

	loops := cachesim.NewTracer(cachesim.New(simM, simB), sh, sizes)
	rLoops := cachesim.TraceLoops(loops, simSteps)

	// The engine's own walker geometry: slopes and reach from the shape,
	// the unified periodic scheme, the default coarsening.
	w := &core.Walker{NDims: 2}
	for i := range sizes {
		w.Sizes[i] = sizes[i]
		w.Slopes[i] = sh.Slope(i)
		w.Reach[i] = sh.Reach(i)
		w.Periodic[i] = true
	}
	tc, sc := pochoir.DefaultCoarsening(2)
	w.TimeCutoff = tc
	copy(w.SpaceCutoff[:], sc)
	trap := cachesim.NewTracer(cachesim.New(simM, simB), sh, sizes)
	rTrap, err := cachesim.TraceWalker(w, trap, simSteps)
	if err != nil {
		r.problem("cachesim TRAP replay: %v", err)
	}
	r.set("cachesim.miss_ratio.trap", rTrap, "ratio")
	r.set("cachesim.miss_ratio.loops", rLoops, "ratio")
	if !(rTrap < rLoops) {
		r.problem("cachesim: TRAP miss ratio %.4f is not below LOOPS %.4f on a %d² replay", rTrap, rLoops, simSide)
	}
	detail("cachesim %d²x%d (M=%d B=%d): TRAP %.4f < LOOPS %.4f", simSide, simSteps, simM, simB, rTrap, rLoops)
}
