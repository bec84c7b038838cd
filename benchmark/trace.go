package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one operation share Op; Parent is the span that
// caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (parallel parts) and may stick out of the parent (a detached build); the
// covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, end := int64(0), s.Start
		for _, c := range iv {
			lo := max(c[0], end)
			if c[1] > lo {
				covered += c[1] - lo
				end = c[1]
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e6
	}
	return out
}

// writeTrace writes the spans and their per-name self times as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms_by_name"`
	}{spans, selfByName(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
