package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed step recorded by the benchmark around a call into the
// program. Spans of one request share its RequestID (the fleet job ID on
// the service workload).
type Span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"` // 0 for a root span
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	StartNS   int64  `json:"start_unix_ns"`
	EndNS     int64  `json:"end_unix_ns"`
}

func (s Span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs call the same code at no cost.
type recorder struct {
	mu    sync.Mutex
	next  int
	spans []Span
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) newID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// record stores a finished span under a reserved ID (or a fresh one when
// id is 0) and returns its ID.
func (r *recorder) record(id, parent int, name, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, RequestID: req,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return id
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children.
func selfSeconds(spans []Span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.seconds()
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.seconds() - child[s.ID]
	}
	return out
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printSelfTimes prints the self-time table of a traced run.
func printSelfTimes(self map[string]float64, per string) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("span self time (%s):\n", per)
	for _, n := range names {
		fmt.Printf("  %-12s %.6f s\n", n, self[n])
	}
}
