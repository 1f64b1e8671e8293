package sched

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDo2(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var a, b atomic.Bool
		Do2(parallel, func() { a.Store(true) }, func() { b.Store(true) })
		if !a.Load() || !b.Load() {
			t.Fatalf("parallel=%v: both closures must run", parallel)
		}
	}
}

func TestDo2SerialOrder(t *testing.T) {
	var order []int
	Do2(false, func() { order = append(order, 1) }, func() { order = append(order, 2) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("serial Do2 order = %v", order)
	}
}

func TestDoAll(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 7, 33} {
			var count atomic.Int64
			fns := make([]func(), n)
			for i := range fns {
				fns[i] = func() { count.Add(1) }
			}
			DoAll(parallel, fns)
			if count.Load() != int64(n) {
				t.Fatalf("parallel=%v n=%d: ran %d", parallel, n, count.Load())
			}
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	f := func(lo8, span8 uint8, grain8 uint8, parallel bool) bool {
		lo := int(lo8)
		hi := lo + int(span8)
		grain := int(grain8)
		marks := make([]atomic.Int32, int(span8)+1)
		For(parallel, lo, hi, grain, func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				marks[i-lo].Add(1)
			}
		})
		for i := 0; i < hi-lo; i++ {
			if marks[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	For(true, 5, 5, 1, func(i0, i1 int) { called = true })
	For(true, 5, 3, 1, func(i0, i1 int) { called = true })
	if called {
		t.Fatal("empty ranges must not invoke the body")
	}
}

func TestForChunksRespectBounds(t *testing.T) {
	For(true, 10, 1000, 7, func(i0, i1 int) {
		if i0 < 10 || i1 > 1000 || i0 >= i1 {
			t.Errorf("bad chunk [%d,%d)", i0, i1)
		}
	})
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers must be at least 1")
	}
}

// goid returns the current goroutine's id, parsed from the header line of
// runtime.Stack ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	id, err := strconv.ParseUint(string(s[:bytes.IndexByte(s, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// tally counts where the tasks of one fork ran: on the calling goroutine
// (inlined) or on a fresh one (spawned).
type tally struct{ spawned, inlined int }

// placed returns n tasks that record their placement relative to the
// calling goroutine, and a function that reads the counts after the sync.
func placed(n int) ([]func(), func() tally) {
	caller := goid()
	var spawned, inlined atomic.Int64
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			if goid() == caller {
				inlined.Add(1)
			} else {
				spawned.Add(1)
			}
		}
	}
	return fns, func() tally {
		return tally{int(spawned.Load()), int(inlined.Load())}
	}
}

func TestDo2Counted(t *testing.T) {
	fns, read := placed(2)
	Do2(false, fns[0], fns[1])
	if c := read(); c.spawned != 0 || c.inlined != 2 {
		t.Fatalf("serial Do2: %+v", c)
	}
	fns, read = placed(2)
	Do2(true, fns[0], fns[1])
	if c := read(); c.spawned != 1 || c.inlined != 1 {
		t.Fatalf("parallel Do2: %+v", c)
	}
}

func TestDoAllCounted(t *testing.T) {
	fns, read := placed(5)
	DoAll(true, fns)
	if c := read(); c.spawned != 4 || c.inlined != 1 {
		t.Fatalf("parallel DoAll(5): %+v", c)
	}
	fns, read = placed(5)
	DoAll(false, fns)
	if c := read(); c.spawned != 0 || c.inlined != 5 {
		t.Fatalf("serial DoAll(5): %+v", c)
	}
	fns, read = placed(1)
	DoAll(true, fns)
	if c := read(); c.spawned != 0 || c.inlined != 1 {
		t.Fatalf("parallel DoAll(1) must inline: %+v", c)
	}
	fns, read = placed(0)
	DoAll(true, fns)
	if c := read(); c.spawned != 0 || c.inlined != 0 {
		t.Fatalf("empty DoAll must run nothing: %+v", c)
	}
}
