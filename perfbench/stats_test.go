package main

import (
	"errors"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},
		{5000, 99, true},
		{999, 98, true},
		{500, 98, true},
		{200, 95, true},
		{100, 90, true},
		{50, 80, true},
		{20, 50, true},
		{19, 100, false},
		{1, 100, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if !ok {
			continue
		}
		if beyond := c.n - nearestRank(p, c.n); beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, p, beyond, minBeyond)
		}
		// The next higher ladder entry must not qualify.
		for k, q := range tailLadder {
			if q == p && k > 0 {
				if beyond := c.n - nearestRank(tailLadder[k-1], c.n); beyond >= minBeyond {
					t.Errorf("n=%d: p%v also leaves %d beyond; the rule picks the highest", c.n, tailLadder[k-1], beyond)
				}
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted input
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat)
	if s.N != 1000 || s.P50 != 500*time.Millisecond || s.Tail != 990*time.Millisecond || s.TailName != "p99" {
		t.Fatalf("summarize = %+v; want n=1000 p50=500ms p99=990ms", s)
	}
	if s := summarize(lat[:15]); s.TailName != "max" || s.Tail != 1000*time.Millisecond {
		t.Fatalf("15 samples: %+v; want the maximum", s)
	}
}

func TestTallyFailAccounting(t *testing.T) {
	var a, b tally
	a.record(time.Millisecond, nil)
	a.record(2*time.Millisecond, errOracle)
	b.record(3*time.Millisecond, nil)
	b.record(0, errors.New("HTTP 503"))
	b.record(4*time.Millisecond, nil)
	a.merge(&b)
	if a.attempted != 5 || a.failed != 2 || a.completed() != 3 || len(a.lat) != 3 {
		t.Fatalf("tally = %+v; want 5 attempted, 2 failed, 3 latencies", a)
	}
	if !errors.Is(a.firstErr, errOracle) {
		t.Fatalf("first error %v; want the oracle rejection", a.firstErr)
	}
	if got := failRatio(a.attempted, a.failed); got != 0.4 {
		t.Fatalf("failRatio = %v; want 0.4", got)
	}
	if got := failRatio(0, 0); got != 1 {
		t.Fatalf("failRatio with nothing attempted = %v; want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	parent := span{Start: ms(0), End: ms(100)}
	children := []span{
		{Start: ms(10), End: ms(30)},
		{Start: ms(20), End: ms(40)},   // overlaps the first: counted once
		{Start: ms(50), End: ms(60)},   // disjoint
		{Start: ms(90), End: ms(120)},  // clipped to the parent
		{Start: ms(150), End: ms(160)}, // outside the parent
	}
	if got := covered(parent.Start, parent.End, children); got != ms(50) {
		t.Fatalf("covered = %v; want 50ms", got)
	}
	if got := selfTime(parent, children); got != ms(50) {
		t.Fatalf("selfTime = %v; want 50ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Fatalf("selfTime without children = %v; want the whole span", got)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 0, 7)
	child := tr.end(tr.begin("call", root.ID, 7))
	root = tr.end(root)
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans; want 2", len(tr.spans))
	}
	if got := tr.spans[0]; got != child || got.Parent != root.ID || got.Req != 7 || got.Name != "call" {
		t.Fatalf("first span %+v; want the call, parented to the request", got)
	}
	if root.Parent != 0 || root.End < child.End {
		t.Fatalf("root span %+v does not enclose its child %+v", root, child)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, 0)) // a nil tracer records nothing and must not panic
}

func TestBlockRatesTakesMediansOverBlocks(t *testing.T) {
	t0 := time.Unix(0, 0)
	marks := []mark{{procSample: procSample{at: t0}, ok: true}}
	// 20 requests of 10ms each, 1ms CPU and 1KiB each, except one slow
	// burst (requests 5-8 take 100ms) that only one block sees.
	at, cpu, alloc := t0, time.Duration(0), uint64(0)
	for i := range 20 {
		d := 10 * time.Millisecond
		if i >= 4 && i < 8 {
			d = 100 * time.Millisecond
		}
		at, cpu, alloc = at.Add(d), cpu+time.Millisecond, alloc+1024
		marks = append(marks, mark{procSample: procSample{at: at, cpu: cpu, allocBytes: alloc}, ok: i != 13})
	}
	b := blockRates(marks, 5)
	if b.blocks != 5 || b.size != 4 {
		t.Fatalf("blocks = %d of %d; want 5 of 4", b.blocks, b.size)
	}
	// Blocks: 4 fast (100 req/s), 1 slow (10 req/s), one fast block with
	// a failure (75 req/s): the median is a fast block's rate.
	if b.opsPerS != 100 {
		t.Errorf("opsPerS = %v; want 100 (the slow block must not move the median)", b.opsPerS)
	}
	if b.cpuMSPerOp != 1 || b.allocKBPerOp != 1 {
		t.Errorf("per-op cpu %v ms, alloc %v KiB; want 1 and 1", b.cpuMSPerOp, b.allocKBPerOp)
	}
}
