// Package loops implements the LOOPS baseline of the paper's Fig. 1: a
// stencil computation as a time-serial sequence of (optionally parallel)
// loop nests over the spatial grid. Only the outermost spatial loop is
// parallelized, as the paper notes is sufficient in practice.
//
// The per-benchmark inner loops live with the stencils; this package
// provides the shared driver, the raw baseline the benchmark comparisons
// run. It has no cancellation or panic handling: the LOOPS engine a
// stencil runs (Options.Algorithm LOOPS, the last rung of the supervisor's
// degradation ladder) is core.Walker's own loop sweep, which gives each
// swept zoid the recursive engines' hardened execution contract.
package loops

import "pochoir/internal/sched"

// Run executes time steps t in [t0, t1). For each step the outermost
// spatial dimension [0, size0) is split into chunks of at least grain
// indices, processed in parallel when parallel is true; step computes the
// slab [i0, i1) of time step t.
func Run(t0, t1 int, parallel bool, size0, grain int, step func(t, i0, i1 int)) {
	for t := t0; t < t1; t++ {
		sched.For(parallel, 0, size0, grain, func(i0, i1 int) {
			step(t, i0, i1)
		})
	}
}
