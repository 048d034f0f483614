package sim

// trials.go — the one shard loop of the Monte Carlo simulators and their
// trial-indexed random streams.
//
// Every simulator runs its trials as fixed-size chunks on sweep.RunCore.
// Each RunCore worker owns one simulator state (codes, solver, evaluator,
// buffers) for its lifetime; a chunk writes its tallies into a slot of a
// ring of sweep.CoreOptions.LiveChunks slots, and the ordered emitter merges
// them in chunk order, so a run holds O(workers) tallies whatever Trials
// is. Trial t
// draws every random number from a stream seeded from (Seed, t) alone, so
// neither the worker that runs it nor the number of workers changes what it
// draws, and the chunk-order merge makes even the floating-point sums
// independent of scheduling. Results are therefore a function of (Seed,
// Trials) only; Workers changes only speed. A cancelled run stops within one
// chunk per worker and reports the contiguous prefix of merged chunks —
// exactly the result of an uncancelled run with that many trials.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"

	"bicoop/internal/sweep"
)

// Chunk sizes, in trials. They fix the merge order of the fading float sums,
// so they are constants, never derived from Workers. A fading trial costs a
// few microseconds, so its chunk amortizes the per-chunk emit; it is at
// least 100 so a 100-trial run stays on RunCore's sequential path. A
// bit-true block costs about a millisecond, so a short chunk keeps both load
// balance and cancellation latency fine.
const (
	fadingChunk  = 128
	bitTrueChunk = 8
)

// trialSource adapts math/rand/v2's PCG to the math/rand (v1) Source64 that
// the gf2, prob and channel kernels draw through; a worker wraps it once in
// a v1 *rand.Rand. Reseeding a PCG is two stores, so a worker restarts its
// one source in place before every trial. The kernels use only Rand methods
// that keep no state of their own, so reseeding the source restarts the
// whole stream.
type trialSource struct{ pcg rand.PCG }

func (s *trialSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *trialSource) Int63() int64 { return int64(s.pcg.Uint64() &^ (1 << 63)) }

// Seed implements rand.Source; it selects trial 0 of the run seeded seed.
func (s *trialSource) Seed(seed int64) { s.seedTrial(seed, 0) }

// seedTrial points the source at the stream of trial t of the run seeded
// seed. Both PCG state words pass through a splitmix64 mix, and distinct
// trials of one run get distinct low words (the mix is a bijection).
//
//bicoop:noalloc
func (s *trialSource) seedTrial(seed int64, t int) {
	k := mix64(uint64(seed))
	s.pcg.Seed(k, mix64(k^uint64(t)))
}

// mix64 is the splitmix64 step: add the golden-ratio increment, then apply
// the finalizer.
//
//bicoop:noalloc
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runTrials executes trials [0, trials) on sweep.RunCore in chunks of chunk
// trials, across workers goroutines (non-positive means GOMAXPROCS).
// run(w, slot, lo, hi) runs trials lo..hi-1 on worker state w and stores the
// chunk's tallies in slot, overwriting what it held; merge(slot) folds them
// into the result. RunCore claims chunk c only after chunk c-LiveChunks has
// been merged, so chunk c owns slot c mod LiveChunks from run to merge, and
// newSlot is called at most LiveChunks times. merge and progress run on the
// calling goroutine, in ascending chunk order, so progress reports a
// strictly increasing count that ends at trials. It returns the number of
// merged trials — trials unless the run stopped early — and the run error,
// if any.
func runTrials[W, T any](ctx context.Context, trials, workers, chunk int, progress func(done, total int),
	newWorker func() W, newSlot func() T, run func(w W, slot T, lo, hi int) error, merge func(slot T)) (int, error) {
	opts := sweep.CoreOptions{Workers: workers, ChunkSize: chunk}
	nChunks := trials / chunk // rounded up below; trials+chunk-1 could overflow
	if trials%chunk != 0 {
		nChunks++
	}
	slots := make([]T, max(0, min(opts.LiveChunks(), nChunks)))
	for i := range slots {
		slots[i] = newSlot()
	}
	slotOf := func(lo int) T { return slots[lo/chunk%len(slots)] }
	done, err := sweep.RunCore(ctx, trials, opts,
		sweep.Hooks[W]{NewWorker: newWorker},
		func(w W, lo, hi int) error {
			// Yield once per chunk. The trial loops never block, so without
			// this a run on the caller's goroutine (a sequential run, or the
			// specs of a campaign) reaches no scheduling point for many
			// chunks. Below GOMAXPROCS 4 the GC's mark worker runs only when
			// a P schedules, so it then waits for the runtime's 10 ms forced
			// preemption and the heap outgrows its goal meanwhile: a loop of
			// bittrue-waterfall campaigns on 2 CPUs grew HeapSys to 15.7 MiB
			// without the yield and 11.7 MiB with it.
			runtime.Gosched()
			return run(w, slotOf(lo), lo, hi)
		},
		func(lo, hi int) error {
			merge(slotOf(lo))
			if progress != nil {
				progress(hi, trials)
			}
			return nil
		})
	if err != nil {
		return done, fmt.Errorf("sim: %w", err)
	}
	return done, nil
}

// outcome classifies one bit-true block.
type outcome int

const (
	decoded        outcome = iota // both terminals recovered the peer message
	relayFailed                   // the relay could not decode
	terminalFailed                // a terminal failed despite relay success
)

// tally counts bit-true blocks by outcome.
type tally [3]int

func (t tally) trials() int { return t[decoded] + t[relayFailed] + t[terminalFailed] }

// blockWorker is the per-worker state of a bit-true simulator: runTrial(t)
// reseeds the worker's stream for trial t and simulates that block.
type blockWorker interface {
	runTrial(t int) outcome
}

// runBlocks runs a bit-true simulator's trials and returns the outcome
// counts over the merged prefix.
func runBlocks[W blockWorker](ctx context.Context, trials, workers int, progress func(done, total int), newWorker func() W) (tally, error) {
	var total tally
	_, err := runTrials(ctx, trials, workers, bitTrueChunk, progress, newWorker,
		func() *tally { return new(tally) },
		func(w W, slot *tally, lo, hi int) error {
			*slot = tally{}
			for t := lo; t < hi; t++ {
				slot[w.runTrial(t)]++
			}
			return nil
		},
		func(slot *tally) {
			for i, n := range slot {
				total[i] += n
			}
		})
	return total, err
}
