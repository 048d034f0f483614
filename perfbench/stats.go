package main

// stats.go — the arithmetic behind the end-to-end metrics: latency
// percentiles with the tail rule, failure accounting, process resource
// counters, and span self time.

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder lists the candidate tail percentiles, highest first. The tail
// metric reports the highest one that still has minBeyond samples above it,
// so a run of n ≥ 1000 requests reports p99 and shorter runs fall back to a
// percentile the sample count can support.
var tailLadder = []float64{99, 98, 95, 90, 80, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile.
const minBeyond = 10

// nearestRank returns the 1-based nearest-rank index of percentile p over n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the tail percentile for n samples. ok is false when
// no ladder entry leaves minBeyond samples beyond it (n < 20); callers then
// report the maximum.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 100, false
}

// latencySummary is the median and the tail of one run's request latencies.
type latencySummary struct {
	N        int
	P50      time.Duration
	Tail     time.Duration
	TailName string // "p99", "p95", ..., or "max"
}

// summarize takes the median and the tail, by the tail rule, of the
// latencies.
func summarize(lat []time.Duration) latencySummary {
	n := len(lat)
	if n == 0 {
		return latencySummary{TailName: "none"}
	}
	out := latencySummary{N: n, P50: percentileOf(lat, 50), TailName: "max"}
	p, ok := tailPercentile(n)
	if ok {
		out.TailName = "p" + strconv.FormatFloat(p, 'f', -1, 64)
	}
	out.Tail = percentileOf(lat, p)
	return out
}

// percentileOf is the nearest-rank percentile p of xs (100 is the maximum).
func percentileOf(xs []time.Duration, p float64) time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(p, len(s))-1]
}

// tally accounts one client's requests. A request counts as attempted when
// it is issued, and as failed when it returns an error (transport error,
// non-2xx status, a job not ending done, or an oracle rejection). Only
// requests that succeed contribute a latency sample.
type tally struct {
	attempted, failed int
	lat               []time.Duration
	firstErr          error
}

func (t *tally) record(d time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat = append(t.lat, d)
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// completed is the number of requests that finished without failing.
func (t *tally) completed() int { return t.attempted - t.failed }

// failRatio is failed over attempted; zero attempts is a total failure.
func failRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// procSample is a snapshot of the process counters the end-to-end metrics
// difference over the timed window.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocBytes uint64        // cumulative Go heap allocation
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	alloc := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc[:])
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: alloc[0].Value.Uint64(),
	}
}

// mark is the process state right after a request finished; ok is false
// for a failed request.
type mark struct {
	procSample
	ok bool
}

// blocksPerRun is how many blocks a run's timed window is cut into.
const blocksPerRun = 20

// blockStats are the medians, over consecutive blocks of requests, of the
// per-block throughput and per-request CPU and allocation. A median over
// blocks is not moved by a burst of outside load that slows one block.
type blockStats struct {
	blocks, size                      int
	opsPerS, cpuMSPerOp, allocKBPerOp float64
}

// blockRates cuts marks (marks[0] is the window start) into at most want
// blocks of equal request count and returns the medians. A trailing partial
// block is dropped.
func blockRates(marks []mark, want int) blockStats {
	n := len(marks) - 1
	if n < 1 {
		return blockStats{}
	}
	size := max(1, n/want)
	var ops, cpu, alloc []float64
	for lo := 0; lo+size <= n; lo += size {
		a, b := marks[lo], marks[lo+size]
		done := 0
		for _, m := range marks[lo+1 : lo+size+1] {
			if m.ok {
				done++
			}
		}
		ops = append(ops, float64(done)/b.at.Sub(a.at).Seconds())
		per := float64(max(done, 1))
		cpu = append(cpu, ms(b.cpu-a.cpu)/per)
		alloc = append(alloc, float64(b.allocBytes-a.allocBytes)/1024/per)
	}
	return blockStats{blocks: len(ops), size: size, opsPerS: median(ops), cpuMSPerOp: median(cpu), allocKBPerOp: median(alloc)}
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// writtenBytes is the process's cumulative storage writes: /proc/self/io
// write_bytes, which counts file data as it is dirtied and not writes to
// sockets, pipes or eventfds.
func writtenBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// median returns the middle value (mean of the two middle values for even
// counts) of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
