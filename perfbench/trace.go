package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call. The task loop runs
// one task at a time, so the current parent span is tracked here for
// callbacks (such as the round-tripper) that cannot be handed it.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int
	trace string
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// enable and disable switch recording on and off between calls.
func (t *tracer) enable()  { t.on.Store(true) }
func (t *tracer) disable() { t.on.Store(false) }

// begin opens a span under the current parent and makes it the
// current parent; end closes it and restores the previous parent.
func (t *tracer) begin(name string) (id, prev int) {
	if !t.on.Load() {
		return 0, 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Trace: t.trace, Name: name, Start: now, End: -1})
	prev, t.cur = t.cur, id
	return id, prev
}

func (t *tracer) end(id, prev int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.cur = prev
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id, prev := t.begin(name)
	defer t.end(id, prev)
	return fn()
}

// leaf records an already-timed span under the current parent without
// changing it; the round-tripper uses it for requests.
func (t *tracer) leaf(name string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.cur, Trace: t.trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// setTrace starts a new task: later spans carry traceID.
func (t *tracer) setTrace(traceID string) {
	t.mu.Lock()
	t.trace = traceID
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// total returns the summed duration of every span named name.
func total(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			sum += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// spanFile is what the traced run writes once at the end.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns"`
}

// writeSpans writes the span file to path.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	self := make(map[string]int64)
	for name, d := range selfTimes(spans) {
		self[name] = d.Nanoseconds()
	}
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: spans, SelfNS: self})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
