// Package engine is the one table of the walker's decomposition engines:
// each engine's name and the properties code branches on. The walker, the
// metrics and flight layers, the supervisor's degradation ladder and
// benchlab all name, parse and dispatch engines through it, so an engine is
// one row here. The package imports nothing of the repo, so every layer can
// import it without a cycle.
package engine

import "fmt"

// ID identifies an engine by its row in the table; core.Algorithm, the
// flight EvRunStart argument and the metrics engine counters carry it.
type ID int

const (
	// TRAP cuts as many dimensions as possible at once (hyperspace cuts),
	// processing the 3^k subzoids in k+1 parallel steps (Lemma 1).
	TRAP ID = iota
	// STRAP cuts one dimension at a time, as in Frigo and Strumpen's
	// parallel algorithm: 2 parallel steps per cut dimension.
	STRAP
	// LOOPS sweeps the grid time step by time step through the base-case
	// clones, with no decomposition and no parallelism: the engine of
	// last resort on the degradation ladder.
	LOOPS
)

// Count is the number of engines, the length of any array indexed by ID.
const Count = 3

var table = [Count]struct {
	name      string
	serial    bool // never spawns: every zoid runs on the calling goroutine
	recursive bool // decomposes the space-time box into zoids
}{
	TRAP:  {name: "TRAP", recursive: true},
	STRAP: {name: "STRAP", recursive: true},
	LOOPS: {name: "LOOPS", serial: true},
}

// All returns every engine in table order.
func All() []ID {
	ids := make([]ID, Count)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Parse returns the engine with the given name.
func Parse(name string) (ID, bool) {
	for i, row := range table {
		if row.name == name {
			return ID(i), true
		}
	}
	return 0, false
}

// Valid reports whether id is a row of the table.
func (id ID) Valid() bool { return id >= 0 && id < Count }

func (id ID) String() string {
	if id.Valid() {
		return table[id].name
	}
	return fmt.Sprintf("engine(%d)", int(id))
}

// Serial reports whether the engine never spawns.
func (id ID) Serial() bool { return id.Valid() && table[id].serial }

// Recursive reports whether the engine decomposes the box into zoids.
func (id ID) Recursive() bool { return id.Valid() && table[id].recursive }

// MarshalText renders the engine as its name, so reports carry "TRAP"
// rather than 0.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText parses a name written by MarshalText.
func (id *ID) UnmarshalText(b []byte) error {
	v, ok := Parse(string(b))
	if !ok {
		return fmt.Errorf("engine: unknown engine %q", b)
	}
	*id = v
	return nil
}
