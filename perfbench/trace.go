package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark makes into a layer: its name
// ("<layer>.<call>"), the interval it covered, the span that caused
// it, and the trace (one campaign, job set or request) it belongs to.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent; a zero parent starts a new trace.
func (t *tracer) start(name string, parent span) span {
	if t == nil {
		return span{}
	}
	s := span{Name: name, ID: t.next.Add(1), Parent: parent.ID, Trace: parent.Trace}
	if parent.ID == 0 {
		s.Trace = s.ID
	}
	s.Start = int64(time.Since(t.epoch))
	return s
}

// end closes a span and records it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// write saves spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes sums each layer's self time in milliseconds: every span's
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.dur() - covered(kids[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	return out
}

// residual returns how much of root's interval no child span covers.
func residual(spans []span, root span) time.Duration {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent == root.ID {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return time.Duration(root.dur() - covered(iv, root.Start, root.End))
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the spans' durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}
