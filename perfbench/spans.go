package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps its own calls into each layer's public functions.
// Spans of one task share Task; Parent links a call to the span that
// caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Task   int64  `json:"task"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out. A nil
// *spanLog is the untraced run: every method is a no-op.
type spanLog struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// reset drops every span recorded so far.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

// newID reserves a span ID, so a root can be named before its children
// end (0 when untraced).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// add records a span under a fresh ID and returns it (0 when untraced).
func (l *spanLog) add(name string, task, parent int64, start, end time.Time) int64 {
	id := l.newID()
	l.record(id, name, task, parent, start, end)
	return id
}

// record records a span under an ID from newID.
func (l *spanLog) record(id int64, name string, task, parent int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Task: task, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))})
	l.mu.Unlock()
}

// durations returns the durations, in microseconds, of every span named
// one of names.
func (l *spanLog) durations(names ...string) []float64 {
	if l == nil {
		return nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if want[s.Name] {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
