package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoreHookLifecycle pins the generic worker-state contract: one
// NewWorker/CloseWorker pair per worker goroutine, ResetWorker exactly once
// per chunk, and chunk boundaries that depend only on (n, ChunkSize) — the
// invariant every workload's determinism rests on.
func TestRunCoreHookLifecycle(t *testing.T) {
	const n, cs = 103, 10
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		news, closes, resets := 0, 0, 0
		var chunks [][2]int
		hooks := Hooks[*int]{
			NewWorker: func() *int {
				mu.Lock()
				defer mu.Unlock()
				news++
				return new(int)
			},
			ResetWorker: func(w *int) {
				mu.Lock()
				defer mu.Unlock()
				resets++
				*w = 0
			},
			CloseWorker: func(w *int) {
				mu.Lock()
				defer mu.Unlock()
				closes++
			},
		}
		prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: workers, ChunkSize: cs}, hooks,
			func(w *int, lo, hi int) error {
				if *w != 0 {
					return errors.New("worker state not reset at chunk boundary")
				}
				*w = hi - lo
				mu.Lock()
				chunks = append(chunks, [2]int{lo, hi})
				mu.Unlock()
				return nil
			}, nil)
		if err != nil || prefix != n {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		if news != closes || news == 0 {
			t.Errorf("workers=%d: %d NewWorker vs %d CloseWorker calls", workers, news, closes)
		}
		wantChunks := (n + cs - 1) / cs
		if resets != wantChunks || len(chunks) != wantChunks {
			t.Errorf("workers=%d: %d resets, %d chunks, want %d", workers, resets, len(chunks), wantChunks)
		}
		seen := make(map[int]int, wantChunks)
		for _, c := range chunks {
			seen[c[0]] = c[1]
		}
		for c := 0; c < wantChunks; c++ {
			lo := c * cs
			hi := lo + cs
			if hi > n {
				hi = n
			}
			if seen[lo] != hi {
				t.Errorf("workers=%d: chunk [%d, %d) missing or misshapen (got hi=%d)", workers, lo, hi, seen[lo])
			}
		}
	}
}

// TestRunCoreChunkSizeOne covers the campaign shape: heavyweight points
// claimed one at a time, zero-state workers, ordered emission.
func TestRunCoreChunkSizeOne(t *testing.T) {
	const n = 9
	var ran atomic.Int64
	var emitted []int
	prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: 4, ChunkSize: 1}, Hooks[struct{}]{},
		func(_ struct{}, lo, hi int) error {
			if hi != lo+1 {
				return errors.New("chunk wider than 1")
			}
			ran.Add(1)
			return nil
		},
		func(lo, hi int) error {
			emitted = append(emitted, lo)
			return nil
		})
	if err != nil || prefix != n {
		t.Fatalf("prefix=%d err=%v", prefix, err)
	}
	if ran.Load() != n || len(emitted) != n {
		t.Fatalf("ran %d, emitted %d, want %d", ran.Load(), len(emitted), n)
	}
	for i, lo := range emitted {
		if lo != i {
			t.Fatalf("emission order %v, want ascending", emitted)
		}
	}
}

// TestRunCoreWorkerStateIsolation proves two workers never share a W: each
// chunk records the identity of the state that ran it, and the per-state
// chunk sets partition the chunk index space.
func TestRunCoreWorkerStateIsolation(t *testing.T) {
	const n, cs = 64, 4
	type worker struct{ id int }
	var nextID atomic.Int64
	owners := make([]*worker, (n+cs-1)/cs)
	hooks := Hooks[*worker]{
		NewWorker: func() *worker { return &worker{id: int(nextID.Add(1))} },
	}
	prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: 4, ChunkSize: cs}, hooks,
		func(w *worker, lo, hi int) error {
			owners[lo/cs] = w
			return nil
		}, nil)
	if err != nil || prefix != n {
		t.Fatalf("prefix=%d err=%v", prefix, err)
	}
	for c, w := range owners {
		if w == nil {
			t.Fatalf("chunk %d never ran", c)
		}
	}
}

// TestRunCoreHugeNBoundedBookkeeping pins that RunCore's own bookkeeping is
// O(workers), not O(n): a pre-cancelled run over MaxInt points allocates a
// few kilobytes and returns the cancellation, and the chunk arithmetic
// near MaxInt does not overflow.
func TestRunCoreHugeNBoundedBookkeeping(t *testing.T) {
	const n = int(^uint(0) >> 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prefix, err := RunCore(ctx, n, CoreOptions{Workers: 2, ChunkSize: 64}, Hooks[struct{}]{},
		func(struct{}, int, int) error { return nil },
		func(int, int) error { return nil })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prefix < 0 || prefix%64 != 0 {
		t.Errorf("prefix = %d, want a non-negative chunk boundary", prefix)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("pre-cancelled run over %d points allocated %d bytes, want O(workers)", n, got)
	}

	nChunks := n/64 + 1
	if lo, hi := chunkBoundsOf(nChunks-1, n, 64); lo != n-n%64 || hi != n {
		t.Errorf("last chunk = [%d, %d), want [%d, %d)", lo, hi, n-n%64, n)
	}
	if w := watermarkOf(nChunks, n, 64); w != n {
		t.Errorf("watermark past the last chunk = %d, want %d", w, n)
	}
	if w := watermarkOf(nChunks-1, n, 64); w != n-n%64 {
		t.Errorf("watermark before the last chunk = %d, want %d", w, n-n%64)
	}
}
