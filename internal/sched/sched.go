// Package sched provides the small fork-join runtime used by the execution
// engines. It stands in for the Intel Cilk Plus work-stealing scheduler the
// paper's generated code targets: goroutines multiplexed over GOMAXPROCS
// threads give the same near-greedy fork-join semantics, and the engines
// gate spawning by subproblem volume so goroutine-creation overhead stays a
// small fraction of the work, as base-case coarsening does for Cilk spawns.
//
// Continuous-profiling attribution rides on a runtime guarantee this
// package relies on and pins with a test (see profile_labels_test.go):
// goroutines started with the go statement inherit the spawner's pprof
// label set. Every worker goroutine Do2/DoAll spawns therefore carries the
// calling goroutine's labels (the gateway's tenant/job/priority, the
// supervisor's engine, the walker's phase) without the scheduler touching
// its hot path — CPU samples on spawned workers self-attribute for free.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers returns the current parallelism level (GOMAXPROCS).
func Workers() int { return runtime.GOMAXPROCS(0) }

// PanicError is a panic recovered at a fork-join sync point. The scheduler
// never lets a panic escape on a spawned goroutine (which would kill the
// process): every task — spawned or inlined next to spawned siblings — runs
// under a recover, the first recovered value wins, the remaining siblings
// drain to completion, and the winner is re-raised on the calling goroutine
// once the join completes. Purely serial execution paths are left alone:
// with no goroutines in flight, natural unwinding is already correct and
// costs nothing.
//
// Value holds the original panic value; when a panic crosses several nested
// sync points it is re-raised as the same *PanicError, never re-wrapped, so
// Value and Stack always describe the goroutine that actually panicked.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking goroutine, from runtime/debug.Stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task panic: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicHook, when set, is notified each time a task's panic is first
// captured at a sync point — once per real panic, not once per sync point it
// crosses (nested joins re-raise the same *PanicError, which does not
// re-notify). The flight recorder uses it to stamp scheduler-captured panics
// into the black-box event stream.
var panicHook atomic.Pointer[func(*PanicError)]

// SetPanicHook installs (or, with nil, removes) the captured-panic callback.
// The callback runs on the panicking goroutine while the region's siblings
// drain, so it must not itself panic or block.
func SetPanicHook(fn func(*PanicError)) {
	if fn == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&fn)
}

// panicSlot collects the first panic of a fork-join region.
type panicSlot struct {
	p atomic.Pointer[PanicError]
}

// capture is deferred inside every task of a parallel region: it records
// the first panic (preserving an already-wrapped *PanicError from a nested
// join) and swallows the rest so the join's WaitGroup always completes.
func (s *panicSlot) capture() {
	r := recover()
	if r == nil {
		return
	}
	if pe, ok := r.(*PanicError); ok {
		s.p.CompareAndSwap(nil, pe)
		return
	}
	pe := &PanicError{Value: r, Stack: debug.Stack()}
	if hook := panicHook.Load(); hook != nil {
		(*hook)(pe)
	}
	s.p.CompareAndSwap(nil, pe)
}

// rethrow re-raises the captured panic, if any, after the join.
func (s *panicSlot) rethrow() {
	if pe := s.p.Load(); pe != nil {
		panic(pe)
	}
}

// Do2 runs a and b, in parallel when parallel is true ("spawn a; call b;
// sync" in Cilk terms), serially otherwise. If a task panics in a parallel
// region, the sibling still runs to completion and the first panic is
// re-raised as a *PanicError on the calling goroutine at the sync point.
func Do2(parallel bool, a, b func()) {
	if !parallel {
		a()
		b()
		return
	}
	var first panicSlot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer first.capture()
		a()
	}()
	func() {
		defer first.capture()
		b()
	}()
	wg.Wait()
	first.rethrow()
}

// DoAll runs every function in fns, in parallel when parallel is true.
// The final function runs on the calling goroutine, so a single-element
// list never spawns.
func DoAll(parallel bool, fns []func()) {
	n := len(fns)
	if n == 0 {
		return
	}
	if !parallel || n == 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	var first panicSlot
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for _, f := range fns[:n-1] {
		f := f
		go func() {
			defer wg.Done()
			defer first.capture()
			f()
		}()
	}
	func() {
		defer first.capture()
		fns[n-1]()
	}()
	wg.Wait()
	first.rethrow()
}

// For divides the half-open index range [lo, hi) into contiguous chunks of
// at least grain indices and runs body on each chunk, in parallel when
// parallel is true. It is the "cilk_for" of the LOOPS baseline. body
// receives a half-open subrange [i0, i1).
func For(parallel bool, lo, hi, grain int, body func(i0, i1 int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if !parallel || n <= grain {
		body(lo, hi)
		return
	}
	// Choose a chunk count that keeps every worker busy without drowning
	// the scheduler: ~4 chunks per worker, bounded below by the grain.
	chunks := Workers() * 4
	if chunks > (n+grain-1)/grain {
		chunks = (n + grain - 1) / grain
	}
	if chunks <= 1 {
		body(lo, hi)
		return
	}
	size := (n + chunks - 1) / chunks
	var first panicSlot
	var wg sync.WaitGroup
	for start := lo; start < hi; start += size {
		end := start + size
		if end > hi {
			end = hi
		}
		if end == hi {
			// Run the last chunk inline.
			func() {
				defer first.capture()
				body(start, end)
			}()
			break
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer first.capture()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
	first.rethrow()
}
