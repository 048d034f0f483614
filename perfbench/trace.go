package main

// trace.go — in-memory spans for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer (the program under test is
// not instrumented), kept in memory, and written out once the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's start so a trace file is independent of the wall clock.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a root span
	Req    int64         `json:"req"`    // request the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so request code
// calls it unconditionally and the untraced window pays only a nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the caller passes it to end when the call returns.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)}
}

// end closes and records a span opened by begin, returning it.
func (t *tracer) end(s span) span {
	if t == nil {
		return s
	}
	s.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// add records a span whose bounds the caller measured itself (per-point
// spans taken inside callbacks).
func (t *tracer) add(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of the spans covers.
// Overlapping children (parallel workers) are counted once.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// timePair times a layer's call and the next layer down on the same inputs,
// as two root spans of request rid. swap runs the lower call first;
// callers alternate it across probes so neither side gets a systematic
// warm-cache advantage.
func timePair(tr *tracer, rid int64, swap bool, upperName, lowerName string, upper, lower func() error) (up, down span, err error) {
	run := func(name string, f func() error) (span, error) {
		s := tr.begin(name, 0, rid)
		err := f()
		return tr.end(s), err
	}
	if swap {
		if down, err = run(lowerName, lower); err != nil {
			return
		}
		up, err = run(upperName, upper)
		return
	}
	if up, err = run(upperName, upper); err != nil {
		return
	}
	down, err = run(lowerName, lower)
	return
}
