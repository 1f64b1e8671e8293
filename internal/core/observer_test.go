package core

import (
	"testing"

	"pochoir/internal/metrics"
)

// TestObserverForkCounts pins the scheduler's placement contract as the
// observer records it: a parallel fork of n tasks spawns n-1 and inlines
// the last; a serial fork inlines all n.
func TestObserverForkCounts(t *testing.T) {
	cases := []struct {
		n                int
		parallel         bool
		spawned, inlined int64
	}{
		{2, false, 0, 2},
		{2, true, 1, 1},
		{5, false, 0, 5},
		{5, true, 4, 1},
	}
	for _, c := range cases {
		m := metrics.NewRunMetrics(metrics.NewRegistry())
		o := &Observer{Met: m}
		o.fork(nil, c.n, c.parallel, 3)
		if s, i := m.Spawns.Value(), m.Inlines.Value(); s != c.spawned || i != c.inlined {
			t.Fatalf("fork(n=%d, parallel=%v): spawned=%d inlined=%d, want %d/%d",
				c.n, c.parallel, s, i, c.spawned, c.inlined)
		}
		if got := m.ForkDepth.Count(); got != c.spawned {
			t.Fatalf("fork(n=%d, parallel=%v): %d fork-depth samples, want one per spawn (%d)",
				c.n, c.parallel, got, c.spawned)
		}
	}
	// A nil observer records nothing and must not panic.
	var o *Observer
	o.fork(nil, 3, true, 0)
}
