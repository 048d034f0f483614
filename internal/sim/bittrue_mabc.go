package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"bicoop/internal/gf2"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
	"bicoop/internal/stats"
)

// MABCBitTrueConfig parameterizes the bit-true two-phase compute-and-forward
// simulation. It realizes the remark after Theorem 2: the relay is NOT
// required to decode both messages — it decodes only the XOR wa ⊕ wb and
// rebroadcasts it, which the erasure abstraction of the multiple-access
// phase makes exact: when both terminals transmit the same random linear
// code's parities of their own messages simultaneously, the relay observes
// the parity of the XOR (physical-layer network coding), erased with
// probability EpsMAC.
type MABCBitTrueConfig struct {
	// EpsMAC is the erasure probability of the multiple-access phase at the
	// relay; EpsRA and EpsRB are the broadcast-phase erasure probabilities
	// of the r-a and r-b links.
	EpsMAC, EpsRA, EpsRB float64
	// Rate is the common per-terminal message rate (bits per channel use);
	// compute-and-forward requires equal-length messages.
	Rate float64
	// Durations are the two phase durations; nil derives the optimal split
	// from the rate constraints.
	Durations []float64
	// BlockLength is the total number of channel uses.
	BlockLength int
	// Trials is the number of independent blocks.
	Trials int
	// Seed drives the run deterministically: block t draws from a stream
	// seeded from (Seed, t), so results are a function of (Seed, Trials)
	// only. Erasures follow the word-parallel canonical stream (see
	// erasure.go).
	Seed int64
	// Workers bounds the goroutines running trial chunks; non-positive
	// means GOMAXPROCS. It changes only speed, never results.
	Workers int
	// Confidence for the reported success interval (default 0.95).
	Confidence float64
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count once per merged chunk. Invocations are serialized and the
	// reported count is strictly increasing, ending at Trials.
	Progress func(done, total int)
}

// MABCBitTrueResult reports the outcome with a confidence interval.
type MABCBitTrueResult struct {
	// SuccessProb is the fraction of blocks where both terminals recovered
	// the peer message.
	SuccessProb float64
	// SuccessCI is the Wilson confidence interval on SuccessProb.
	SuccessCI stats.Interval
	// RelayFailures counts blocks where the relay could not decode the XOR.
	RelayFailures int
	// TerminalFailures counts blocks lost at a terminal after relay success.
	TerminalFailures int
	// Trials is the number of trials actually completed — the configured
	// count unless the run's context was cancelled mid-flight.
	Trials int
	// Durations echoes the phase split used.
	Durations []float64
}

// MABCComputeForwardBound returns the symmetric-rate bound of the
// compute-and-forward MABC scheme on the erasure abstraction: the relay
// needs Δ1·(1-EpsMAC) ≥ R to decode the XOR, and each terminal needs
// Δ2·(1-eps_own_link) ≥ R to decode the broadcast, so
//
//	R* = max over Δ of min(Δ·(1-EpsMAC), (1-Δ)·(1-EpsRA), (1-Δ)·(1-EpsRB)).
//
// Dropping the relay's decode-both requirement is exactly what removes
// Theorem 2's MAC sum constraint (the paper's remark); the per-user
// constraints keep the same shape.
func MABCComputeForwardBound(epsMAC, epsRA, epsRB float64) (rate float64, durations []float64) {
	cMAC := 1 - epsMAC
	cBC := math.Min(1-epsRA, 1-epsRB)
	if cMAC <= 0 || cBC <= 0 {
		return 0, []float64{0.5, 0.5}
	}
	// min(Δ·cMAC, (1-Δ)·cBC) is maximized where the two meet.
	d1 := cBC / (cMAC + cBC)
	return d1 * cMAC, []float64{d1, 1 - d1}
}

// RunBitTrueMABC executes the compute-and-forward MABC protocol bit by bit,
// running trial chunks across cfg.Workers goroutines, each with its own
// codes and elimination scratch. Cancelling ctx stops the run within one
// chunk; the counts over the completed prefix of blocks are returned
// alongside the (wrapped) error, and equal an uncancelled run's with Trials
// set to that prefix.
func RunBitTrueMABC(ctx context.Context, cfg MABCBitTrueConfig) (MABCBitTrueResult, error) {
	for _, e := range []float64{cfg.EpsMAC, cfg.EpsRA, cfg.EpsRB} {
		if e < 0 || e > 1 || math.IsNaN(e) {
			return MABCBitTrueResult{}, fmt.Errorf("sim: erasure probability %g out of [0,1]", e)
		}
	}
	if cfg.BlockLength <= 0 {
		return MABCBitTrueResult{}, fmt.Errorf("sim: block length %d", cfg.BlockLength)
	}
	if cfg.Trials <= 0 {
		return MABCBitTrueResult{}, ErrNoTrials
	}
	if cfg.Rate <= 0 {
		return MABCBitTrueResult{}, fmt.Errorf("sim: rate %g must be positive", cfg.Rate)
	}
	durations := cfg.Durations
	if durations == nil {
		_, durations = MABCComputeForwardBound(cfg.EpsMAC, cfg.EpsRA, cfg.EpsRB)
	} else if err := protocols.CheckDurations(durations, 2); err != nil {
		return MABCBitTrueResult{}, fmt.Errorf("sim: MABC: %w", err)
	}
	n := cfg.BlockLength
	n1 := int(math.Round(durations[0] * float64(n)))
	n2 := n - n1
	k := int(math.Floor(cfg.Rate * float64(n)))
	if k == 0 {
		return MABCBitTrueResult{}, fmt.Errorf("sim: block length %d too short for rate %g", n, cfg.Rate)
	}
	conf := cfg.Confidence
	if conf <= 0 {
		conf = 0.95
	}

	counts, runErr := runBlocks(ctx, cfg.Trials, cfg.Workers, cfg.Progress,
		func() *mabcWorker { return newMABCWorker(cfg, k, n1, n2) })
	res := MABCBitTrueResult{
		RelayFailures:    counts[relayFailed],
		TerminalFailures: counts[terminalFailed],
		Trials:           counts.trials(),
		Durations:        durations,
	}
	successes := counts[decoded]
	if res.Trials > 0 {
		res.SuccessProb = float64(successes) / float64(res.Trials)
		ci, err := stats.WilsonInterval(successes, res.Trials, conf)
		if err != nil {
			return MABCBitTrueResult{}, err
		}
		res.SuccessCI = ci
	}
	return res, runErr
}

// mabcWorker is one worker's compute-and-forward Monte Carlo state: an RNG
// reseeded per block, two preallocated generators re-randomized in
// place per block, message/codeword buffers, the broadcast erasure masks, a
// pre-reserved gf2.Solver, and the equation accumulators. Rows are shared
// generator views (RowView): read-only here, consumed in place by the
// solver. Steady-state blocks perform no heap allocation (gated by
// TestBitTrueMABCBlockZeroAllocs).
type mabcWorker struct {
	k, n1, n2 int
	seed      int64
	src       trialSource
	rng       *rand.Rand

	// maskMAC, maskRA, maskRB draw 64 link erasures per call (see
	// erasure.go).
	maskMAC, maskRA, maskRB prob.WordBernoulli

	codeMAC, codeBC  gf2.Code
	wa, wb, s        gf2.Vector
	xs, xr           gf2.Vector
	sHat, sAtA, sAtB gf2.Vector
	solver           gf2.Solver

	// eraseA, eraseB hold the broadcast erasure masks of the r-a and r-b
	// links, 64 positions per word.
	eraseA, eraseB []uint64

	rows []gf2.Vector
	bits []int
}

// newMABCWorker allocates a worker with every buffer at its maximum size.
func newMABCWorker(cfg MABCBitTrueConfig, k, n1, n2 int) *mabcWorker {
	maxN := n1
	if n2 > maxN {
		maxN = n2
	}
	w := &mabcWorker{
		k: k, n1: n1, n2: n2,
		seed:    cfg.Seed,
		maskMAC: prob.NewWordBernoulli(cfg.EpsMAC),
		maskRA:  prob.NewWordBernoulli(cfg.EpsRA),
		maskRB:  prob.NewWordBernoulli(cfg.EpsRB),
		codeMAC: gf2.Code{G: gf2.NewMatrix(n1, k)},
		codeBC:  gf2.Code{G: gf2.NewMatrix(n2, k)},
		wa:      gf2.NewVector(k),
		wb:      gf2.NewVector(k),
		s:       gf2.NewVector(k),
		xs:      gf2.NewVector(n1),
		xr:      gf2.NewVector(n2),
		sHat:    gf2.NewVector(k),
		sAtA:    gf2.NewVector(k),
		sAtB:    gf2.NewVector(k),
		eraseA:  make([]uint64, (n2+63)/64),
		eraseB:  make([]uint64, (n2+63)/64),
		rows:    make([]gf2.Vector, 0, maxN),
		bits:    make([]int, 0, maxN),
	}
	// The pair tableau is the larger scratch; reserving it first grows the
	// shared buffer once.
	w.solver.ReservePair(n2, k)
	w.solver.Reserve(n1, k)
	w.rng = rand.New(&w.src)
	return w
}

// runTrial simulates block t. Its erasures are drawn 64 positions per mask
// in the canonical batch order documented in erasure.go, from the stream of
// trial t, so the outcome depends only on (Seed, t).
//
//bicoop:noalloc
func (w *mabcWorker) runTrial(t int) outcome {
	w.src.seedTrial(w.seed, t)
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)
	w.s.CopyPrefix(w.wa)
	_ = w.s.XorWith(w.wb)

	// Phase 1 (MAC): both terminals encode with the SAME shared generator
	// (agreed via common randomness, as in physical-layer network coding);
	// the relay observes parities of the XOR message through erasures.
	w.codeMAC.Rerandomize(w.rng)
	_ = w.codeMAC.EncodeInto(&w.xs, w.s) // equals Encode(wa) xor Encode(wb) by linearity
	w.rows, w.bits = w.rows[:0], w.bits[:0]
	for base := 0; base < w.n1; base += 64 {
		surv := ^w.maskMAC.Mask(w.rng) & liveLanes(base, w.n1)
		for m := surv; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.rows = append(w.rows, w.codeMAC.G.RowView(i))
			w.bits = append(w.bits, w.xs.Bit(i))
		}
	}
	if err := w.solver.SolveConsistentInto(&w.sHat, w.k, w.rows, w.bits); err != nil || !w.sHat.Equal(w.s) {
		return relayFailed
	}

	// Phase 2 (broadcast): the relay re-encodes the XOR with a fresh code;
	// each terminal decodes it through its own link's erasures and strips
	// its own message. Both terminals receive the same codeword, so the
	// positions that survive both links give them shared equations, which
	// the pair decode eliminates once.
	w.codeBC.Rerandomize(w.rng)
	_ = w.codeBC.EncodeInto(&w.xr, w.sHat)
	for j := range w.eraseA {
		w.eraseA[j] = w.maskRA.Mask(w.rng)
	}
	for j := range w.eraseB {
		w.eraseB[j] = w.maskRB.Mask(w.rng)
	}
	w.rows, w.bits = w.rows[:0], w.bits[:0]
	w.appendBroadcast(true, false)
	na := len(w.rows)
	w.appendBroadcast(true, true)
	shared := len(w.rows)
	w.appendBroadcast(false, true)
	errA, errB := w.solver.SolvePairConsistentInto(&w.sAtA, &w.sAtB, w.k, w.rows, w.bits, na, len(w.rows)-shared)
	if errA != nil || errB != nil {
		return terminalFailed
	}
	_ = w.sAtA.XorWith(w.wa) // terminal a strips wa, leaving its estimate of wb
	_ = w.sAtB.XorWith(w.wb) // terminal b strips wb
	if !w.sAtA.Equal(w.wb) || !w.sAtB.Equal(w.wa) {
		return terminalFailed
	}
	return decoded
}

// appendBroadcast appends the broadcast equations at the positions whose
// r-a link survival is atA and whose r-b link survival is atB.
//
//bicoop:noalloc
func (w *mabcWorker) appendBroadcast(atA, atB bool) {
	for j := range w.eraseA {
		base := j * 64
		a, b := w.eraseA[j], w.eraseB[j]
		if atA {
			a = ^a
		}
		if atB {
			b = ^b
		}
		for m := a & b & liveLanes(base, w.n2); m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.rows = append(w.rows, w.codeBC.G.RowView(i))
			w.bits = append(w.bits, w.xr.Bit(i))
		}
	}
}
