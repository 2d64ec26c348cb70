package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module of the
// program. Spans of one round (or one daemon submission) share a trace
// ID; Parent names the span whose call caused this one.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Trace  string           `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"startNs"`
	End    int64            `json:"endNs"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs take the same code paths without
// reading the clock for spans.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent int64, traceID, name string, start, end time.Time, attrs map[string]int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: traceID, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f, recording it as a span when tracing is on.
func (t *tracer) call(parent int64, traceID, name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(id, parent, traceID, name, start, time.Now(), nil)
	return err
}

// named returns the recorded spans with the given name, optionally
// restricted to one trace ("" = all), in recording order.
func (t *tracer) named(name, traceID string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (traceID == "" || s.Trace == traceID) {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the named spans.
func (t *tracer) seconds(name, traceID string) []float64 {
	var out []float64
	for _, s := range t.named(name, traceID) {
		out = append(out, s.seconds())
	}
	return out
}

// cellTotals sums one trace's runner.cell spans: compute and wait
// seconds, cells served from the store, and cells computed.
func (t *tracer) cellTotals(traceID string) (compute, wait, cached, computed float64) {
	for _, s := range t.named("runner.cell", traceID) {
		compute += float64(s.Attrs["compute"]) / 1e9
		wait += float64(s.Attrs["wait"]) / 1e9
		switch {
		case s.Attrs["cached"] == 1:
			cached++
		case s.Attrs["coalesced"] == 0:
			computed++
		}
	}
	return compute, wait, cached, computed
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
