package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round, view or
// probe share Op; Parent is the index of the span that caused this one
// (-1 for a root span). Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so timed runs pay one nil
// check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: wallNow()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	start := int64(wallNow().Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(idx int) {
	if t == nil {
		return
	}
	end := int64(wallNow().Sub(t.epoch))
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span index, the span's duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		reach := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals sums duration and self time per span name.
type spanTotal struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.SelfNs += self[i]
		out[s.Name] = t
	}
	return out
}

// writeTrace writes the spans and their per-name totals to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Workload string               `json:"workload"`
		Totals   map[string]spanTotal `json:"totals"`
		Spans    []span               `json:"spans"`
	}{workload, totalsByName(spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
