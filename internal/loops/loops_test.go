package loops

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversTimeSteps(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var marks [8][16]atomic.Int32
		Run(2, 10, parallel, 16, 4, func(tt, i0, i1 int) {
			for i := i0; i < i1; i++ {
				marks[tt-2][i].Add(1)
			}
		})
		for tt := range marks {
			for i := range marks[tt] {
				if marks[tt][i].Load() != 1 {
					t.Fatalf("parallel=%v: step %d index %d ran %d times",
						parallel, tt+2, i, marks[tt][i].Load())
				}
			}
		}
	}
}

// TestRunStepsAreSequential: a step must observe all previous steps done —
// the time loop is serial even when the spatial loop is parallel.
func TestRunStepsAreSequential(t *testing.T) {
	var done [6]atomic.Int32
	Run(0, 6, true, 32, 1, func(tt, i0, i1 int) {
		for prev := 0; prev < tt; prev++ {
			if done[prev].Load() != 32 {
				t.Errorf("step %d started before step %d finished", tt, prev)
				return
			}
		}
		done[tt].Add(int32(i1 - i0))
	})
	for tt := range done {
		if done[tt].Load() != 32 {
			t.Fatalf("step %d incomplete", tt)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	called := false
	Run(3, 3, true, 8, 1, func(tt, i0, i1 int) { called = true })
	if called {
		t.Fatal("no steps should run")
	}
}
