package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch on the monotonic clock. A folded span stands
// for Calls calls of one callback within its parent (per-observation
// Emit): Start is the first call's start and End-Start the sum of the
// calls' durations, so its duration is exact but its placement is not.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run and writes them out
// once at the end. A nil *tracer records nothing, so untraced code paths
// call the same methods at the cost of a nil check. It is used from one
// goroutine at a time.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// add records an already measured span.
func (t *tracer) add(name string, parent int, start, end int64, calls int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end, Calls: calls})
	return id
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the durations of its children.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	out := make(map[string]float64)
	for i := range t.spans {
		out[t.spans[i].Name] += float64(t.spans[i].dur()-child[i]) / 1e9
	}
	return out
}

// durations returns the durations in seconds of every span named name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/1e9)
		}
	}
	return out
}

// write stores the spans and the per-layer self times as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type layer struct {
		Name  string  `json:"name"`
		SelfS float64 `json:"self_s"`
	}
	doc := struct {
		Run    string  `json:"run"`
		Layers []layer `json:"layers"`
		Spans  []span  `json:"spans"`
	}{Run: t.run, Spans: t.spans}
	for _, n := range names {
		doc.Layers = append(doc.Layers, layer{n, self[n]})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
