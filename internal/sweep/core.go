package sweep

// core.go — the workload-generic sharded execution core. Run (the
// evaluator-grid entry point in sweep.go), RegionBatch (region.go), the
// Monte Carlo simulators' trial chunks (internal/sim) and the facade's
// simulation campaigns all execute through RunCore: an indexed
// point set is split into fixed-size chunks pulled by a worker pool, each
// worker owning private state W supplied by Hooks and reset at every chunk
// boundary, with an ordered streaming emitter under bounded backpressure.
//
// The contract every workload inherits:
//
//   - chunk claim is one atomic add; chunk boundaries depend only on n and
//     the chunk size, never on Workers, so any per-chunk state reset happens
//     at the same indices for every worker count and results stay
//     bit-identical;
//   - emit(start, end) observes completed chunks in strictly ascending
//     order, with at most CoreOptions.LiveChunks (~2×workers) chunks of
//     results live (ticket semaphore), so streaming consumers and RunCore
//     itself hold O(workers) chunks, not the whole point set;
//   - cancellation: a context.AfterFunc flips one atomic flag polled per
//     chunk, the pool drains within one chunk per worker, and the
//     contiguous prefix of completed (and emitted) points is reported
//     alongside the context error.

import (
	"context"
	"sync"
	"sync/atomic"
)

// Hooks supplies the per-worker state of a generic sharded run. Every worker
// goroutine owns one W for its lifetime; ResetWorker runs at each chunk
// boundary so a chunk's results depend only on the chunk itself, never on
// which worker evaluated the previous one. All fields are optional: a nil
// NewWorker gives every worker W's zero value (stateless workloads such as
// simulation campaigns pass Hooks[struct{}]{}).
type Hooks[W any] struct {
	// NewWorker returns the state one worker owns (e.g. a leased warm
	// evaluator). Called once per worker goroutine.
	NewWorker func() W
	// ResetWorker clears any cross-chunk state (e.g. LP warm-start bases)
	// at every chunk boundary, before do runs on the chunk.
	ResetWorker func(W)
	// CloseWorker releases the state when the worker exits (e.g. returns
	// the evaluator to its pool). Runs even when the run halts early.
	CloseWorker func(W)
}

func (h Hooks[W]) newWorker() W {
	if h.NewWorker != nil {
		return h.NewWorker()
	}
	var zero W
	return zero
}

func (h Hooks[W]) reset(w W) {
	if h.ResetWorker != nil {
		h.ResetWorker(w)
	}
}

func (h Hooks[W]) close(w W) {
	if h.CloseWorker != nil {
		h.CloseWorker(w)
	}
}

// CoreOptions tunes a generic run.
type CoreOptions struct {
	// Workers bounds the goroutines evaluating chunks; non-positive means
	// GOMAXPROCS. The worker count affects scheduling only — results are
	// bit-identical for every value.
	Workers int
	// ChunkSize is the number of consecutive points one worker evaluates
	// per claim; non-positive means ChunkSize (64). Pick it per workload —
	// 1 for heavyweight points like whole simulation runs — but never
	// derive it from Workers: chunk boundaries are the worker-state reset
	// points, so determinism across worker counts depends on them being
	// fixed.
	ChunkSize int
	// Start resumes a run: points [0, Start) are assumed already evaluated
	// and emitted by an earlier run, so neither do nor emit sees them.
	// Start is floored to a chunk boundary (any watermark a Checkpointer
	// saved already is one); the returned prefix still counts from 0 and
	// includes the skipped points.
	Start int
	// Checkpoint, when non-nil, persists the emitter's watermark — the
	// contiguous emitted point prefix — each time it advances. A Save
	// error halts the run like an emit error. Feed the last saved value
	// back as Start to resume.
	Checkpoint Checkpointer
	// Retry re-runs failed chunks per the policy, recreating the worker's
	// state W through the run's Hooks between attempts; nil fails fast on
	// the first error. See RetryPolicy.
	Retry *RetryPolicy
}

func (o CoreOptions) workers() int {
	return Options{Workers: o.Workers}.workers()
}

// LiveChunks bounds how many chunks a RunCore run with these options holds
// claimed but not yet emitted: chunk c is claimed only after emit has
// returned for chunk c-LiveChunks(). Per-chunk result storage indexed by
// chunk modulo LiveChunks() is therefore free again before any later chunk
// writes it, so a caller can hold O(workers) chunks of results whatever n is.
func (o CoreOptions) LiveChunks() int {
	return liveChunks(o.workers())
}

// liveChunks is the backpressure window for a pool of workers goroutines.
func liveChunks(workers int) int {
	return max(4, 2*workers)
}

func (o CoreOptions) chunkSize() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return ChunkSize
}

// RunCore evaluates n indexed points with per-worker state W. do(w, start,
// end) evaluates the contiguous chunk [start, end) — freshly reset via
// Hooks.ResetWorker — and must write its results into caller-owned,
// index-addressed storage; emit(start, end), when non-nil, is invoked for
// completed chunks in strictly ascending order (the streaming sink). A do or
// emit error, or context cancellation, halts the run within one chunk per
// worker.
//
// Failures are contained per chunk: a do error (including a recovered
// workload panic, surfaced as a *PanicError) is reported as a *ChunkError,
// and opts.Retry re-runs transiently failed chunks with fresh worker state.
// opts.Start resumes past an already-emitted prefix and opts.Checkpoint
// persists the emitted watermark as it advances (see CoreOptions).
//
// RunCore returns the length of the contiguous prefix of points whose chunks
// completed (and, when emit is set, were emitted) without error — n on
// success — plus the first error in enumeration order, with context errors
// taking precedence.
func RunCore[W any](ctx context.Context, n int, opts CoreOptions, hooks Hooks[W], do func(w W, start, end int) error, emit func(start, end int) error) (int, error) {
	if n <= 0 {
		return 0, ctxErr(ctx)
	}
	cs := opts.chunkSize()
	nChunks := n / cs // rounded up below; n+cs-1 could overflow
	if n%cs != 0 {
		nChunks++
	}
	startChunk := 0
	if opts.Start > 0 {
		if opts.Start >= n {
			// The watermark already covers every point; nothing to run.
			return n, ctxErr(ctx)
		}
		// Resume point: floor to a chunk boundary so the skipped prefix is
		// exactly a set of whole chunks (saved watermarks already are).
		startChunk = opts.Start / cs
	}
	workers := opts.workers()
	if workers > nChunks-startChunk {
		workers = nChunks - startChunk
	}
	if workers <= 1 {
		return runCoreSequential(ctx, n, nChunks, cs, startChunk, opts, hooks, do, emit)
	}

	var halted atomic.Bool
	haltCh := make(chan struct{})
	var haltOnce sync.Once
	halt := func() {
		haltOnce.Do(func() {
			halted.Store(true)
			close(haltCh)
		})
	}
	stop := func() bool { return false }
	if ctx != nil && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, halt)
	}
	defer stop()

	// tickets bounds how far computation may run ahead of the emitter: a
	// worker takes one ticket per chunk claim and the emitter returns it
	// once the chunk has been streamed (or skipped past an error). This
	// caps the reorder buffer — and with it the caller's live per-chunk
	// result storage — at window chunks instead of the whole point set:
	// every claimed chunk lies in [nextEmit, nextEmit+window), so the
	// per-chunk bookkeeping below lives in window slots indexed c % window.
	window := min(liveChunks(workers), nChunks-startChunk)
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}

	var next atomic.Int64
	next.Store(int64(startChunk))
	chunkErr := make([]error, window)
	// At most window chunks are claimed and not yet advanced past, so a
	// completion send never blocks.
	completions := make(chan int, window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := hooks.newWorker()
			defer func() { hooks.close(st) }()
			for {
				select {
				case <-tickets:
				case <-haltCh:
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo, hi := chunkBoundsOf(c, n, cs)
				if err := runChunkAttempts(ctx, hooks, &st, opts.Retry, c, lo, hi, do); err != nil {
					chunkErr[c%window] = err
					halt()
				}
				completions <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	// The calling goroutine is the emitter: it advances a cursor over the
	// completed-chunk set and streams ready chunks in order, halting the
	// pool on an emit error but always draining it. Each advanced chunk
	// returns its backpressure ticket; ticket sends cannot block because at
	// most window claims are outstanding. A slot is cleared before its
	// ticket returns, so the chunk window later that reuses it starts clean.
	// (After a halt the remaining tickets are irrelevant — workers exit via
	// haltCh.)
	done := make([]bool, window)
	nextEmit := startChunk
	emitting := emit != nil
	var ckErr error
	for c := range completions {
		done[c%window] = true
		advanced := false
		for nextEmit < nChunks {
			s := nextEmit % window
			if !done[s] || chunkErr[s] != nil {
				break
			}
			if emitting {
				lo, hi := chunkBoundsOf(nextEmit, n, cs)
				if err := emit(lo, hi); err != nil {
					chunkErr[s] = err
					halt()
					emitting = false
					break
				}
			}
			done[s] = false
			nextEmit++
			advanced = true
			tickets <- struct{}{}
		}
		if advanced && opts.Checkpoint != nil && ckErr == nil {
			if err := opts.Checkpoint.Save(watermarkOf(nextEmit, n, cs)); err != nil {
				ckErr = err
				halt()
			}
		}
	}

	prefix := watermarkOf(nextEmit, n, cs)
	if err := ctxErr(ctx); err != nil {
		return prefix, err
	}
	// Every chunk that ran and was not advanced past lies in the window
	// starting at nextEmit; scan it in enumeration order.
	for c := nextEmit; c < min(nChunks, nextEmit+window); c++ {
		if err := chunkErr[c%window]; err != nil {
			return prefix, err
		}
	}
	return prefix, ckErr
}

// watermarkOf converts an emitted-chunk cursor to the emitted point prefix.
func watermarkOf(nextEmit, n, cs int) int {
	if nextEmit > (n-1)/cs { // past the last chunk (n ≥ 1); avoids overflow
		return n
	}
	return nextEmit * cs
}

// runCoreSequential is the single-worker path: same chunk boundaries and
// worker-state resets as the pool, so its outputs are bit-identical, without
// goroutine or channel overhead.
func runCoreSequential[W any](ctx context.Context, n, nChunks, cs, startChunk int, opts CoreOptions, hooks Hooks[W], do func(w W, start, end int) error, emit func(start, end int) error) (int, error) {
	st := hooks.newWorker()
	defer func() { hooks.close(st) }()
	for c := startChunk; c < nChunks; c++ {
		if err := ctxErr(ctx); err != nil {
			return c * cs, err
		}
		lo, hi := chunkBoundsOf(c, n, cs)
		if err := runChunkAttempts(ctx, hooks, &st, opts.Retry, c, lo, hi, do); err != nil {
			return lo, err
		}
		if emit != nil {
			if err := emit(lo, hi); err != nil {
				return lo, err
			}
		}
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint.Save(watermarkOf(c+1, n, cs)); err != nil {
				return watermarkOf(c+1, n, cs), err
			}
		}
	}
	return n, nil
}

func chunkBoundsOf(c, n, cs int) (lo, hi int) {
	lo = c * cs
	if n-lo <= cs { // not lo+cs > n, which could overflow
		return lo, n
	}
	return lo, lo + cs
}
