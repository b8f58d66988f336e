package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code
// around the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // the replayed operation; -1 for warm-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: shard workers record from their own goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// run wraps f in a span; f receives the span's id to parent its own.
func (t *tracer) run(op, parent int, name string, f func(id int) error) error {
	id := t.begin(op, parent, name)
	err := f(id)
	t.end(id)
	return err
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// opSpans is one replayed operation's spans with their self times.
type opSpans struct {
	spans []span
	self  []int64 // parallel to spans
}

// byOp groups the spans of every measured operation (warm-up excluded)
// and computes each span's self time: its duration minus the part of it
// its children cover.
func (t *tracer) byOp() map[int]*opSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]*opSpans)
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		o := out[s.Op]
		if o == nil {
			o = &opSpans{}
			out[s.Op] = o
		}
		o.spans = append(o.spans, s)
		o.self = append(o.self, selfTime(s.Start, s.End, children[s.ID]))
	}
	return out
}

// Per-operation span summaries, in nanoseconds; each is 0 when the
// operation has no span of that name.

// selfSum adds the self time of the operation's spans named name.
func (o *opSpans) selfSum(name string) int64 {
	var v int64
	for i, s := range o.spans {
		if s.Name == name {
			v += o.self[i]
		}
	}
	return v
}

// durSum adds the durations of the operation's spans named name.
func (o *opSpans) durSum(name string) int64 {
	var v int64
	for _, s := range o.spans {
		if s.Name == name {
			v += s.End - s.Start
		}
	}
	return v
}

// durMax is the longest duration of the operation's spans named name.
func (o *opSpans) durMax(name string) int64 {
	var v int64
	for _, s := range o.spans {
		if s.Name == name {
			v = max(v, s.End-s.Start)
		}
	}
	return v
}

// wall is the time from the first start to the last end of the
// operation's spans named name: the wall time of a concurrent round.
func (o *opSpans) wall(name string) int64 {
	first, last := int64(-1), int64(-1)
	for _, s := range o.spans {
		if s.Name != name {
			continue
		}
		if first < 0 || s.Start < first {
			first = s.Start
		}
		last = max(last, s.End)
	}
	if first < 0 {
		return 0
	}
	return last - first
}

// lastEndSince is the time from the start of the first span named from
// to the last end of the spans named to: how long a fan-out took to
// return its slowest call.
func (o *opSpans) lastEndSince(from, to string) int64 {
	start, last := int64(-1), int64(-1)
	for _, s := range o.spans {
		switch s.Name {
		case from:
			if start < 0 || s.Start < start {
				start = s.Start
			}
		case to:
			last = max(last, s.End)
		}
	}
	if start < 0 || last < 0 {
		return 0
	}
	return last - start
}

// medianOver is the median over the operations of f, in the given unit.
func medianOver(ops map[int]*opSpans, unit time.Duration, f func(*opSpans) int64) float64 {
	vals := make([]float64, 0, len(ops))
	for _, o := range ops {
		vals = append(vals, float64(f(o))/float64(unit))
	}
	return median(vals)
}
