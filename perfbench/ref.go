package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// The gateway job mix draws from the repository's DSL specs
// (examples/dsl/specs/{heat2d,wave1d,apop1d}.pch and the 1D periodic heat
// of examples/gateway). The sources are copied here verbatim so that the
// workload stays fixed when those examples change, and each one sits next
// to its reference: a plain loop nest written from the spec by hand. The
// references share no code with internal/compiler, internal/grid or the
// walker; each evaluates its expression in the spec's left-to-right order
// (explicit float64 conversions keep products from fusing), so a correct
// engine matches it bit for bit.

// boundary is how a reference reads an off-domain point.
type boundary int

const (
	periodic boundary = iota
	clamp
	constOne
)

// gwSpec is one DSL spec of the mix with its reference kernel.
type gwSpec struct {
	name  string
	src   string
	dims  int
	depth int
	// small and large draw a job's sizes and steps for the two classes:
	// small jobs do at most 1024 point updates, large ones 70k-130k.
	small, large func(rng *rand.Rand) ([]int, int)
	// step computes slot t+1 (next) from slot t (cur) and, for depth-2
	// specs, slot t-1 (prev).
	step func(next, cur, prev []float64, sizes []int)
}

func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// small1D and large1D are the 1D size classes shared by three specs.
func small1D(rng *rand.Rand) ([]int, int) {
	return []int{between(rng, 32, 64)}, between(rng, 8, 16)
}

func large1D(rng *rand.Rand) ([]int, int) {
	return []int{between(rng, 768, 1024)}, between(rng, 96, 128)
}

// at1 reads u[x] of a 1D slot of n points under the given boundary.
func at1(u []float64, x int, b boundary) float64 {
	n := len(u)
	if x >= 0 && x < n {
		return u[x]
	}
	switch b {
	case periodic:
		return u[((x%n)+n)%n]
	case clamp:
		return u[min(max(x, 0), n-1)]
	default:
		return 1
	}
}

var gwSpecs = []*gwSpec{
	{
		name: "heat2d",
		src: `# The paper's Fig. 6 program: 2D heat equation on a torus.
stencil heat2d {
  dims: 2;
  param CX = 0.125;
  param CY = 0.125;
  array u;
  boundary u: periodic;
  kernel {
    u(t+1, x, y) = u(t, x, y)
      + CX * (u(t, x+1, y) - 2*u(t, x, y) + u(t, x-1, y))
      + CY * (u(t, x, y+1) - 2*u(t, x, y) + u(t, x, y-1));
  }
}
`,
		dims: 2, depth: 1,
		small: func(rng *rand.Rand) ([]int, int) {
			n := between(rng, 6, 8)
			return []int{n, n}, between(rng, 8, 16)
		},
		large: func(rng *rand.Rand) ([]int, int) {
			n := between(rng, 48, 56)
			return []int{n, n}, between(rng, 32, 40)
		},
		step: func(next, cur, _ []float64, sizes []int) {
			const cx, cy = 0.125, 0.125
			nx, ny := sizes[0], sizes[1]
			u := func(x, y int) float64 { return cur[((x+nx)%nx)*ny+(y+ny)%ny] }
			for x := 0; x < nx; x++ {
				for y := 0; y < ny; y++ {
					c := u(x, y)
					next[x*ny+y] = c + float64(cx*(u(x+1, y)-float64(2*c)+u(x-1, y))) +
						float64(cy*(u(x, y+1)-float64(2*c)+u(x, y-1)))
				}
			}
		},
	},
	{
		name: "wave1d",
		src: `# Depth-2 1D wave equation with clamped (Neumann) boundaries; generated
# in the -split-macro-shadow style to exercise the second code path.
stencil wave1d {
  dims: 1;
  param C = 0.3;
  array u;
  boundary u: clamp;
  kernel {
    u(t+1, x) = 2*u(t, x) - u(t-1, x) + C*(u(t, x+1) - 2*u(t, x) + u(t, x-1));
  }
}
`,
		dims: 1, depth: 2, small: small1D, large: large1D,
		step: func(next, cur, prev []float64, _ []int) {
			const c0 = 0.3
			for x := range next {
				c := cur[x]
				next[x] = float64(2*c) - prev[x] +
					float64(c0*(at1(cur, x+1, clamp)-float64(2*c)+at1(cur, x-1, clamp)))
			}
		},
	},
	{
		name: "apop1d",
		src: `# American-put-style early-exercise stencil: exercises max() and a
# constant boundary in the DSL.
stencil apop1d {
  dims: 1;
  param A = 0.24;
  param B = 0.5;
  param CC = 0.25;
  param FLOOR = 0.8;
  array v;
  boundary v: constant 1;
  kernel {
    v(t+1, x) = max(FLOOR, A*v(t, x-1) + B*v(t, x) + CC*v(t, x+1));
  }
}
`,
		dims: 1, depth: 1, small: small1D, large: large1D,
		step: func(next, cur, _ []float64, _ []int) {
			const a, b, cc, floor = 0.24, 0.5, 0.25, 0.8
			for x := range next {
				v := float64(a*at1(cur, x-1, constOne)) + float64(b*cur[x]) + float64(cc*at1(cur, x+1, constOne))
				if floor >= v {
					v = floor
				}
				next[x] = v
			}
		},
	},
	{
		name: "heat1p",
		src: `stencil heat { dims: 1; array u; boundary u: periodic;
kernel { u(t+1,x) = 0.25*u(t,x-1) + 0.5*u(t,x) + 0.25*u(t,x+1); } }`,
		dims: 1, depth: 1, small: small1D, large: large1D,
		step: func(next, cur, _ []float64, _ []int) {
			for x := range next {
				next[x] = float64(0.25*at1(cur, x-1, periodic)) + float64(0.5*cur[x]) + float64(0.25*at1(cur, x+1, periodic))
			}
		},
	},
}

// gwJob is one drawn submission.
type gwJob struct {
	spec  *gwSpec
	sizes []int
	steps int
	seed  int64
	large bool
}

func (j gwJob) volume() int {
	v := 1
	for _, s := range j.sizes {
		v *= s
	}
	return v
}

func (j gwJob) points() float64 { return float64(j.volume()) * float64(j.steps) }

// largeEvery makes every fifth job a large one. The class follows the job
// number rather than a draw, so every window of jobs has the same mix
// and throughput does not swing with the number of large jobs drawn.
const largeEvery = 5

// drawJob returns job i of the run with the given seed: a pure function
// of both, so every run with one seed submits the same sequence. Job
// seeds are distinct, so no two submissions coalesce.
func drawJob(runSeed int64, i int) gwJob {
	rng := rand.New(rand.NewSource(runSeed*1_000_003 + int64(i)))
	s := gwSpecs[rng.Intn(len(gwSpecs))]
	j := gwJob{spec: s, large: i%largeEvery == largeEvery-1}
	if j.large {
		j.sizes, j.steps = s.large(rng)
	} else {
		j.sizes, j.steps = s.small(rng)
	}
	j.seed = (runSeed&0xffffff)<<32 | int64(i+1)
	return j
}

// initialSlot is the gateway's documented deterministic initial condition
// for array number ai at time t: a hash chain over the flat index.
func initialSlot(seed int64, ai, t, n int) []float64 {
	buf := make([]float64, n)
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ai)<<32 + uint64(t)
	for i := range buf {
		h ^= uint64(i) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		buf[i] = float64(h>>11) / float64(1<<53)
	}
	return buf
}

// reference runs job j with plain loops and returns the gateway's result
// fingerprint: FNV-64a over the bits of the final depth slots.
func reference(j gwJob) string {
	n := j.volume()
	depth := j.spec.depth
	slots := make([][]float64, 0, depth+1)
	for t := 0; t < depth; t++ {
		slots = append(slots, initialSlot(j.seed, 0, t, n))
	}
	for s := 0; s < j.steps; s++ {
		cur := slots[len(slots)-1]
		var prev []float64
		if depth == 2 {
			prev = slots[len(slots)-2]
		}
		next := make([]float64, n)
		j.spec.step(next, cur, prev, j.sizes)
		slots = append(slots[len(slots)-depth+1:], next)
	}
	return checksum(slots[len(slots)-depth:])
}

// checksum is FNV-64a over the little-endian bits of each slot in order.
func checksum(slots [][]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range slots {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			_, _ = h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
