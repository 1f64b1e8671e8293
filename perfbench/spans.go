package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job (or one library entry)
// share Trace; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the run ends; nothing is written
// while measuring.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(trace, name string, parent int64, start, end time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{
		ID: l.next, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(l.epoch).Seconds(), End: end.Sub(l.epoch).Seconds(),
	})
	return l.next
}

// reserve returns an ID for a span whose children finish before it does;
// fill records it once it ends.
func (l *spanLog) reserve() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) fill(id int64, trace, name string, parent int64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(l.epoch).Seconds(), End: end.Sub(l.epoch).Seconds(),
	})
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans under .bench_build/spans in the working directory.
func (l *spanLog) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
