// Package bicoop is a library for analyzing coded bidirectional cooperation
// ("two-way relaying") protocols over half-duplex channels, reproducing
//
//	S.J. Kim, P. Mitran, V. Tarokh,
//	"Performance Bounds for Bidirectional Coded Cooperation Protocols"
//	(ICDCS 2007 / IEEE Transactions on Information Theory 54(11), 2008).
//
// Two terminals a and b exchange messages with the help of a relay r. The
// library evaluates achievable-rate (inner) and converse (outer) bounds for
// the paper's decode-and-forward protocols
//
//   - DT: direct transmission, no relay;
//   - Naive4: four-phase store-and-forward relaying, no network coding;
//   - MABC: two-phase multiple-access broadcast (Theorem 2, tight);
//   - TDBC: three-phase time-division broadcast (Theorems 3-4);
//   - HBC: four-phase hybrid broadcast (Theorems 5-6);
//
// on the Gaussian channel with path loss (Section IV), optimizes phase
// durations by linear programming, computes full rate regions, verifies the
// paper's findings (MABC/TDBC SNR crossover; achievable HBC points beyond
// both outer bounds), and provides Monte Carlo simulators: Rayleigh
// block-fading outage and bit-true TDBC/MABC implementations over erasure
// networks using random linear codes and XOR network coding.
//
// # The Engine
//
// The API centers on the concurrency-safe Engine: it owns pooled
// evaluators (compiled constraint templates keyed by (protocol, bound),
// reusable LP workspaces, closed-form fast paths) and the simulator worker
// pools, and exposes context-aware methods for every workload shape:
//
//	eng := bicoop.NewEngine()
//	s := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
//
//	// Single evaluations.
//	res, err := eng.SumRate(bicoop.HBC, bicoop.Inner, s)
//	ok, err := eng.Feasible(bicoop.HBC, bicoop.Inner, s, bicoop.RatePoint{Ra: 1, Rb: 1})
//
//	// Rate regions: the support-direction sweep behind one Fig 4 curve,
//	// sharded across workers and cancellable mid-curve. RegionOptions.Angles
//	// is the resolution knob: more support directions recover more polygon
//	// vertices exactly (0 means 181, the paper's Fig 4 resolution; the two
//	// axis maxima are always solved exactly on top of the sweep, so coarse
//	// sweeps still anchor max Ra / max Rb). RegionBatch computes whole
//	// curve families — scenarios × protocol bounds — in one sharded run.
//	reg, err := eng.Region(ctx, bicoop.HBC, bicoop.Inner, s, bicoop.RegionOptions{Angles: 361})
//	err = eng.RegionBatch(ctx, bicoop.RegionBatchSpec{...}, func(pt bicoop.RegionBatchPoint) error { ... })
//
//	// Batches: thousands of scenarios sharded across a worker pool, each
//	// worker holding one warm evaluator.
//	results, err := eng.SumRateBatch(ctx, bicoop.TDBC, bicoop.Inner, scenarios)
//
//	// Declarative grids (power × relay placement × protocol, plus an
//	// erasure-network axis), evaluated in parallel and streamed point by
//	// point in enumeration order.
//	err = eng.Sweep(ctx, bicoop.SweepSpec{...}, func(pt bicoop.SweepPoint) error { ... })
//
//	// The unified Monte Carlo entry point: one SimSpec selects the fading
//	// or bit-true simulator under a common Trials/Seed/Workers/Progress
//	// contract; cancelling ctx stops the shard loops within one trial and
//	// returns the statistics over the trials completed so far.
//	sim, err := eng.Simulate(ctx, bicoop.SimSpec{Fading: &bicoop.FadingSpec{Scenario: s}})
//
//	// Campaigns: families of simulation runs — waterfall scale axes, seed
//	// or SNR families — pipelined across an outer worker pool with
//	// deterministic per-spec seeds, streamed as whole runs in spec order.
//	all, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs}, nil)
//
// All Engine methods are safe for concurrent use from many goroutines.
// Inputs are validated up front with typed sentinels (ErrInvalidScenario,
// ErrInvalidTrials, ErrInvalidBlockLength, ...) so malformed scenarios fail
// loudly instead of propagating NaNs into results.
//
// Every operation is an Engine method, with no package-level duplicate. A
// process that wants its calls to share evaluators holds one Engine.
//
// # Resilience
//
// Production-scale sweeps meet transient failure: flaky infrastructure, a
// workload panic, an evicted process. The streaming specs (SweepSpec,
// RegionBatchSpec, CampaignSpec) share three resilience primitives, built
// into the sharded core so every guarantee below composes with the
// bit-identical-across-Workers contract.
//
// Panic containment: a panic inside a worker never crashes the process. It
// is recovered per chunk and surfaced as a *ChunkError wrapping a
// *PanicError (recovered value + stack), reachable through errors.As on the
// returned error.
//
// Retry: a spec's Retry field re-runs failed chunks — MaxAttempts bounds
// the tries, BaseDelay/MaxDelay shape a capped exponential backoff whose
// jitter is derived deterministically from the chunk index, and IsTransient
// classifies which errors are worth retrying (nil retries everything except
// context cancellation). Between attempts the failed worker's state is torn
// down and recreated through the same hooks that built it, so a chunk that
// succeeds on attempt 3 produces exactly the bits it would have produced on
// attempt 1:
//
//	spec.Retry = &bicoop.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond}
//
// Checkpoint/resume: a spec's Checkpoint field observes the resume
// watermark — the contiguous prefix of results already delivered to the
// caller, in the spec's own yield units (points, curves, or runs) — and the
// Start field resumes a later run past it. Saves fire only after the
// corresponding yields returned, so a watermark never overstates delivery,
// and the concatenated yields of an interrupted run plus its resume equal
// an uninterrupted run's exactly:
//
//	ck := &bicoop.FileCheckpoint{Path: "sweep.ck"}
//	spec.Checkpoint = ck
//	spec.Start, _ = ck.Load() // 0 on the first run
//	err := eng.Sweep(ctx, spec, writeRow)
//
// The CLI packages the recipe: `bcc sweep -o grid.csv -checkpoint grid.ck`
// persists {watermark, CSV byte offset} atomically as the sweep streams, a
// rerun truncates the CSV to the checkpointed offset and resumes from the
// watermark, and the finished file is byte-identical to an uninterrupted
// run's — through any number of Ctrl-C, -timeout (exit 124), or kill -9
// interruptions. Deterministic fault injection for testing retry paths
// lives in internal/sweep/chaos: it wraps a workload with seed-keyed
// transient/permanent faults and panics, every injection a pure function of
// (seed, chunk, attempt), so a chaos-wrapped run retried to completion is
// asserted bit-identical to a fault-free one at every worker count.
//
// # Running bccd
//
// Command bccd serves the same engine as a crash-safe HTTP/JSON job
// daemon, for long sweeps that should survive the submitting shell — and
// the machine. It layers the checkpoint/resume discipline above into a
// durable job store (internal/service): each job gets a directory holding
// its spec verbatim, its state, a streaming results.csv, and a
// {watermark, byte offset} checkpoint saved atomically as rows flush.
//
//	bccd -store /var/lib/bccd -addr 127.0.0.1:8347
//
//	POST   /v1/jobs              submit a job; 201 + {"id": "j000001", ...}
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status: state, error, resume watermark
//	GET    /v1/jobs/{id}/results the CSV so far (live jobs: checkpointed
//	                             prefix only, never retractable rows)
//	DELETE /v1/jobs/{id}         cancel; partial results stay valid
//	GET    /healthz              {"ok": true, "draining": false}
//
// A job is exactly one of "sweep", "region_batch" or "campaign" (mirroring
// SweepSpec, RegionBatchSpec, CampaignSpec; enums travel as names), plus
// optional "retry" and "timeout_ms":
//
//	{"sweep": {"base": {"PowerDB": 0, "GabDB": -7, "GarDB": 0, "GbrDB": 5},
//	           "powers_db": [0, 10, 20], "protocols": ["MABC", "TDBC"]}}
//
// The guarantees are the CLI's, detached from any client: kill -9 the
// daemon mid-job and the restarted daemon rescans the store, re-queues
// interrupted jobs, truncates each results.csv to its checkpointed offset,
// and resumes from the watermark — the finished file is byte-identical to
// an uninterrupted run's (the service-chaos CI job pins this at several
// worker counts). SIGTERM drains gracefully: admission stops (503 +
// Retry-After), running jobs checkpoint and park back to queued, and the
// process exits within -drain. A full queue sheds new submissions with 429
// + Retry-After instead of buffering unboundedly; "timeout_ms" lands a job
// past its deadline in state "timeout" with valid partial results,
// mirroring bcc's exit-124 contract. `make service-smoke` runs the
// end-to-end lifecycle; `make service-chaos` runs the kill -9 gate.
//
// # Result cache
//
// Every analytic bound is a pure function of (protocol, bound, scenario),
// and real workloads repeat scenarios constantly — a placement sweep
// revisits the same grid point at every power, a resubmitted bccd job
// re-solves yesterday's grid verbatim. WithCache(capacity) puts a
// scenario-keyed result cache (internal/cache) in front of the LP solves:
// SumRate, SumRateBatch, Sweep and RegionBatch consult it per point and
// fill it per solve. The CLI exposes it as `bcc sweep -cache N`; the
// daemon as `bccd -cache N`, which also opens the durable tier described
// below.
//
// Keys quantize every real coordinate (dB powers and gains, erasure
// probabilities, support-direction weights) onto a canonical 1e-9 grid
// through one chokepoint, cache.Quantize, so equal coordinates produce
// byte-equal keys on every platform (the cachekey analyzer rejects keys
// assembled any other way). Quantization applies to the lookup key only:
// the stored value is the exact solve of the exact scenario, so a hit
// returns bit-identical output, not a grid-rounded approximation.
//
// Cached values are canonical cold solves. A warm-started simplex solve
// carries its predecessor's basis, and on degenerate LPs (multiple
// optimal vertices) the warm and cold paths can legitimately pick
// different optimal rate points — same objective, different (Ra, Rb)
// split. A cache hit must not depend on which points happened to precede
// the miss that filled it, so cache-enabled runs disable warm starting
// and every cached value is position-independent. Consequences: a cached
// run equals another cached run, a single-point SumRate, and itself at
// any worker count, bit for bit (pinned by == tests at Workers 1/2/7);
// for the closed-form bounds (DT, MABC, TDBC) it also equals a warm
// batch; for Naive4/HBC a warm uncached sweep may report a different —
// equally optimal — vertex at degenerate points.
//
// The in-process tier is a sharded store: 64 shards, one mutex and a
// flat entry array per shard, second-chance (clock) eviction, zero
// allocations on the hit path (~120 bytes per entry plus map overhead,
// so -cache 65536 costs ~10 MB). Engine.CacheStats reports Hits, Misses,
// Fills and Evictions since construction; Hits+Misses counts lookups
// exactly, and Fills counts distinct keys filled (concurrent workers may
// race to solve the same key — the loser's overwrite is counted as a
// miss but not a fill). bccd republishes the counters at GET /stats.
//
// bccd adds a durable tier (internal/service.CacheLog): an append-only
// cache.log next to the job store, one fixed-size CRC32-checked record
// per fill, flushed after every job and replayed into the store at
// startup — so a resubmitted job after a restart is served from cache.
// Fills are warmth, not correctness: replay stops at the first torn or
// corrupt record, compaction snapshots the live entries via tmp+rename
// (also triggered when stale records bloat the log past twice the live
// count), and a kill -9 at any instant loses at most the unflushed tail,
// which the next run re-solves. The service-chaos gate pins this: a
// cache-served rerun across SIGKILLs must be byte-identical to the
// uninterrupted run. The bench-gate CI job pins the fast path itself —
// an all-hit batch must stay at least 5x cheaper than the same batch
// all-miss (`benchjson compare -min-speedup`).
//
// # Performance and profiling
//
// Every reported quantity reduces to a tiny phase-duration LP per scenario,
// re-solved per protocol per fading block by the Monte Carlo layer. The hot
// path is allocation-free in steady state: internal/protocols.Evaluator
// caches the scenario-independent constraint structure per protocol/bound,
// evaluates only the mutual-information terms that structure references
// (exact aliases share one transcendental), solves the two- and three-phase
// bounds (DT, MABC, TDBC) in closed form by candidate-vertex enumeration,
// and falls back to a reusable-workspace simplex (internal/simplex) for
// Naive4/HBC.
//
// Every parallel workload in the repository — SumRateBatch and Sweep grids,
// Region and RegionBatch support sweeps, SimulateBatch campaigns, and the
// figure experiments — executes through one generic sharded core,
// internal/sweep.RunCore: an indexed point set is split into fixed-size
// chunks pulled by a worker pool (claim = one atomic add), each worker owns
// private state supplied by a Hooks[W] triple (NewWorker/ResetWorker/
// CloseWorker), completed chunks stream to an ordered emitter under a
// bounded backpressure window (~2x workers chunks live), and cancellation
// is a context.AfterFunc flipping one atomic flag polled per chunk, with
// the contiguous completed prefix reported alongside the context error.
// Sharding a new axis is three decisions: flatten the axis into point
// indices (the grid flattens power x placement x protocol; regions flatten
// curves x support directions; campaigns flatten whole simulation runs at
// chunk size 1), pick the per-worker state W and its per-chunk reset (warm
// evaluators reset their LP bases; stateless workloads pass
// Hooks[struct{}]{}), and write results into index-addressed storage so
// the emitter can stream them in enumeration order. Because chunk
// boundaries depend only on the point count and chunk size — never on
// Workers — any state reset happens at the same indices for every worker
// count, which is what makes every result bit-identical from 1 worker to N.
//
// For the LP grids concretely: each worker holds one warm evaluator, and
// within a chunk the Naive4/HBC LPs warm-start from a neighbor's optimal
// basis. The hint must come from the right neighbor: a sweep chunk is
// visited placement by placement along the power axis (results stay
// index-addressed), because HBC's optimal basis carries over one power step
// at the same placement almost always, but matches the previous placement's
// basis at the same power only about a quarter of the time; region sweeps
// step the support angle of one curve. simplex.SolveWarmIn verifies a hint
// rather than pivoting into it: it factors the hinted basis once and accepts
// it when every basic value is ≥ -1e-7 and every reduced cost ≤ 1e-9 — the
// tolerances the simplex itself stops at — reading the solution off that
// factorization in zero pivots, bit-identical to a cold solve ending in the
// same basis; any other hint is solved cold. The parallel knobs: WithWorkers
// sets an engine-wide default; SweepSpec.Workers, RegionOptions.Workers,
// RegionBatchSpec.Workers and CampaignSpec.Workers override per run; all
// default to GOMAXPROCS. A post-solve refinement step makes every LP
// solution a function of its final basis alone, so batch, sweep and region
// results are bit-identical for every Workers setting — worker count only
// trades wall-clock time for cores. Campaigns keep the same guarantee one
// level up: every SimSpec carries its own seed, and inside a campaign a
// spec's zero Workers field means one trial goroutine (not the engine
// default), so campaign statistics never depend on the outer worker count
// or the host's core count.
// The figure pipeline streams: experiments consume sweep points through
// callbacks, tables accumulate raw floats (plot.ColumnTable) and format
// once at render time, and each canonical figure emits a text+CSV artifact
// pinned by golden-file tests (internal/experiments/testdata/figures;
// regenerate with `go test ./internal/experiments/ -run TestGoldenFigures
// -update`).
//
// The bit-true simulators are word-parallel end to end: internal/gf2 packs
// rows into flat []uint64 matrices redrawn in place per block
// (Matrix.Rerandomize); link erasures are drawn 64 channel uses at a time by
// prob.WordBernoulli masks (one ~8-draw fixed-point refinement per 64
// positions instead of 64 Float64 calls; survivors visited by a
// TrailingZeros64 scan — see internal/sim/erasure.go); and decoding runs
// through a reusable word-level elimination tableau (gf2.Solver.SolveInto
// and the SolveConsistentInto early-stop variant for noiseless erasure
// observations), which from 256 unknowns switches to a dense M4RI-style
// multi-column eliminator (internal/gf2/m4ri.go: 16 pivot columns per pass,
// combination tables indexed directly by the row's stripe bits — two 8-bit
// tables while more than 900 rows remain below the pass's pivot block,
// four 4-bit tables after that — row echelon form plus back substitution).
// The incremental basis and the dense tableau share one scratch buffer in
// gf2.Solver, since they never hold live state at once. The GF(2) layer
// does only the elimination a block's outcome depends on: a consistent
// system with fewer equations than unknowns — every relay decode above
// the bound — returns ErrUnderdetermined from its row count without
// eliminating, and the two MABC terminals, which receive the same relay
// broadcast through their own erasures, decode in one
// Solver.SolvePairConsistentInto call: a first pass takes its pivots from
// the equations both terminals received, with each terminal's own
// equations reduced by the same tables, and each terminal then finishes
// with its own equations beneath the shared pivots (at the n=4000
// waterfall point the terminals share about 1480 equations over 1483
// unknowns, with 160–260 more each of their own). A side whose loaded
// equations fall short of full rank falls back to its own
// SolveConsistentInto, so every outcome is what two separate decodes
// give. The cutover is tuned on the waterfall's own shapes (consistent
// mode, ≈1.11 equations per unknown at 0.9 of the bound; BenchmarkSolve*
// in internal/gf2, median of 5 runs of 10 solves on a shared 2-core Xeon
// VM, Go 1.24; the pair row median of 9 runs of 10):
//
//	k     rows  incremental  dense    block
//	320    356     0.33 ms   0.12 ms  n=1200 TDBC relay, wb
//	400    445     0.59 ms   0.19 ms  n=1200 TDBC relay, wa
//	445    494     0.73 ms   0.16 ms  n=1200 MABC relay
//	1068  1188     6.3 ms    1.5 ms   n=4000 TDBC relay, wb
//	1336  1485    10.0 ms    2.4 ms   n=4000 TDBC relay, wa
//	1483  1649    13.0 ms    2.8 ms   n=4000 MABC relay
//	489    445     short: 0.5 µs (was a 0.7 ms elimination)
//	1483  2×1499   two dense solves 5.1 ms, one pair decode 3.0 ms:
//	               n=4000 MABC terminals (1262 shared rows, 237 own each)
//
// The incremental basis still wins at 128 unknowns; the dense path wins
// from about 192.
//
// The TDBC/MABC trial loops run on a worker pool with per-worker RNGs,
// codes, and scratch — zero allocations per block. Context cancellation
// costs one atomic flag load per trial (internal/sim's runGate), so a
// cancelled run stops within one trial without slowing an uncancelled one. Allocation regressions are pinned by
// testing.AllocsPerRun tests next to the hot paths (internal/protocols,
// internal/sim, internal/simplex, internal/gf2).
//
// Canonical-stream migration note: the word-parallel masks replaced the
// retired one-Float64-per-position erasure sampling, which changed the
// bit-true simulators' canonical random stream. Results remain a pure
// function of (Seed, Trials, Workers), but a seed recorded against the
// scalar stream now produces a different — statistically equally valid —
// sample path, so success counts from pre-mask releases are not directly
// comparable at the per-seed level (the statistical contracts, waterfall
// thresholds and sharded-vs-sequential agreement all carry over).
//
// Start perf work from a profile, not a guess:
//
//	# profile a real workload through the CLI (also for bit-true runs:
//	# -workers caps GOMAXPROCS, which bounds every simulator's pool)
//	go run ./cmd/bcc run fading -workers 1 -cpuprofile /tmp/cpu.prof
//	go run ./cmd/bcc run bitsim -workers 8 -cpuprofile /tmp/bitsim.prof
//	go tool pprof -top /tmp/cpu.prof
//
//	# or profile the micro-benchmarks around the kernel you are changing
//	go test ./internal/sim/ -run '^$' -bench BenchmarkOutageTrial \
//	    -benchmem -cpuprofile /tmp/trial.prof
//	go test ./internal/sim/ -run '^$' -bench 'BenchmarkErasureMask' \
//	    -benchmem   # word-parallel masks vs the retired scalar sampler
//	go test ./internal/gf2/ -run '^$' -bench 'BenchmarkSolve' \
//	    -benchtime 20x -benchmem   # elimination ladder at the waterfall's shapes
//	go test . -run '^$' -bench 'Benchmark(Engine|OneShot)SumRateBatch$' \
//	    -benchmem   # engine batch vs 1k one-shot calls over the same grid
//	go test ./internal/sim/ -run '^$' -bench 'BenchmarkBitTrue(TDBC|MABC)(Parallel)?$' \
//	    -benchtime 10x -benchmem   # full runs, sequential vs sharded
//	go tool pprof -top /tmp/trial.prof
//
//	# record the before/after ledger (writes BENCH_*.json)
//	./scripts/bench.sh BENCH_after.json
//
//	# the perf regression gate: short ledger run compared against the
//	# committed BENCH_after.json; nonzero exit on a hot-path time
//	# regression, on allocs appearing in a 0-alloc kernel, or on a
//	# benchmark disappearing (stale bench.sh pattern)
//	make bench-compare
//	go run ./cmd/benchjson compare BENCH_after.json BENCH_ci.json -threshold 1.25
//
// BENCH_baseline.json (the pre-optimization revision) and BENCH_after.json
// (current) are committed at the repo root; keep them in sync with scripts/
// bench.sh when a PR changes performance-relevant code. CI's bench-gate job
// runs the same compare with a looser threshold (cross-machine ns/op), so a
// perf regression fails the PR instead of silently rotting the ledger; the
// bench.sh pattern lists themselves are guarded by TestBenchLedgerCoverage.
//
// # Static analysis
//
// The repository's cross-cutting invariants — the rules the sections above
// state in prose — are enforced mechanically by cmd/bcclint, a stdlib-only
// multichecker built on internal/lint. `make lint` (or
// `go run ./cmd/bcclint ./...`) runs six project analyzers:
//
//   - detrand: result-producing packages draw no nondeterminism — no
//     global math/rand (seeds travel in specs) and no wall-clock reads —
//     so every result stays a pure function of its inputs and the
//     bit-identical-across-Workers contract survives.
//   - noalloc: functions annotated `//bicoop:noalloc` (the gf2, simplex
//     and bit-true per-block kernels) must not contain allocating
//     constructs; the annotation turns the "zero allocations per block"
//     claim into a compile-time-checkable contract alongside the
//     AllocsPerRun tests. The directive on a package clause (internal/gf2)
//     widens the scope to every function in the package, with
//     `//bicoop:allow noalloc` doc waivers as the audited opt-out for cold
//     constructors and scratch growers.
//   - ctxflow: exported Run*/Sweep*/Simulate* entry points take a
//     context.Context first, and nothing outside package main mints its
//     own context.Background/TODO — cancellation always threads from the
//     caller.
//   - atomicwrite: internal/service writes durable files only through
//     functions annotated `//bicoop:atomicio` (tmp+rename or an audited
//     checkpoint-truncate), keeping the kill -9 recovery story auditable
//     at the call-site level.
//   - errwrap: sentinel comparisons use errors.Is, and fmt.Errorf wraps
//     with %w rather than flattening with %v/%s, so errors.Is/As keep
//     working across API layers.
//   - cachekey: result-cache keys are built only by internal/cache's
//     quantizing constructors — a hand-assembled cache.Key literal or a
//     Key field write outside that package can skip Quantize or the
//     layout-version stamp and silently alias cache entries.
//
// A finding is fixed, or waived in place with a one-line audited comment
// `//bicoop:allow <analyzer> — reason` covering that line and the next.
// The suite runs clean over the whole module and CI's lint job keeps it
// that way, alongside version-pinned staticcheck (SA checks) and
// govulncheck. The analyzers are plain go/ast+go/types passes loaded via
// `go list -export` (no external dependencies); their fixtures live in
// internal/lint/analyzers/testdata with both flagged and deliberately
// clean near-miss cases.
package bicoop
