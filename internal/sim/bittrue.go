package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"bicoop/internal/gf2"
	"bicoop/internal/netcode"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
)

// ErasureNetwork is the three-node binary erasure network the bit-true
// TDBC simulator runs on; it lives in package protocols, which maps it to
// LinkInfos.
type ErasureNetwork = protocols.ErasureNetwork

// BitTrueConfig parameterizes a bit-true TDBC run.
type BitTrueConfig struct {
	// Net is the erasure network.
	Net ErasureNetwork
	// Rates is the target message rate pair in bits per channel use.
	Rates protocols.RatePair
	// Durations are the phase durations (3 entries summing to 1). Nil asks
	// the simulator to derive them from the TDBC inner bound via LP.
	Durations []float64
	// BlockLength is the total number of channel uses n.
	BlockLength int
	// Trials is the number of independent blocks.
	Trials int
	// Seed makes the run reproducible: block t draws from a stream seeded
	// from (Seed, t), so results are a function of (Seed, Trials) only. The
	// canonical stream draws erasures 64 positions at a time (see
	// erasure.go).
	Seed int64
	// Workers bounds the goroutines running trial chunks; non-positive
	// means GOMAXPROCS. Each worker owns its codes and elimination scratch;
	// the worker count changes only speed, never results.
	Workers int
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count once per merged chunk. Invocations are serialized and the
	// reported count is strictly increasing, ending at Trials.
	Progress func(done, total int)
}

// BitTrueResult reports bit-true decoding outcomes.
type BitTrueResult struct {
	// SuccessProb is the fraction of blocks where both terminals recovered
	// the peer message exactly.
	SuccessProb float64
	// RelayFailures counts blocks lost because the relay could not decode.
	RelayFailures int
	// TerminalFailures counts blocks lost at a terminal despite relay
	// success.
	TerminalFailures int
	// Trials is the number of trials actually completed — the configured
	// count unless the run's context was cancelled mid-flight.
	Trials int
	// Durations echoes the durations used (after LP derivation if any).
	Durations []float64
}

// ErrInfeasibleRates is returned when no durations support the target rates.
var ErrInfeasibleRates = errors.New("sim: target rates outside the TDBC inner bound")

// tdbcParams are the integer block dimensions of one TDBC run, derived once
// from the config and shared by every worker.
type tdbcParams struct {
	ka, kb, kr int
	n1, n2, n3 int
}

// deriveTDBCParams validates the config and resolves durations and block
// dimensions.
func deriveTDBCParams(cfg BitTrueConfig) (tdbcParams, []float64, error) {
	if err := cfg.Net.Validate(); err != nil {
		return tdbcParams{}, nil, err
	}
	if cfg.BlockLength <= 0 {
		return tdbcParams{}, nil, fmt.Errorf("sim: block length %d", cfg.BlockLength)
	}
	if cfg.Trials <= 0 {
		return tdbcParams{}, nil, ErrNoTrials
	}
	if cfg.Rates.Ra < 0 || cfg.Rates.Rb < 0 {
		return tdbcParams{}, nil, fmt.Errorf("sim: negative rates %+v", cfg.Rates)
	}

	durations := cfg.Durations
	if durations == nil {
		spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, cfg.Net.LinkInfos())
		if err != nil {
			return tdbcParams{}, nil, err
		}
		durations, err = spec.DurationsFor(cfg.Rates)
		if err != nil {
			return tdbcParams{}, nil, fmt.Errorf("%w: %w", ErrInfeasibleRates, err)
		}
	} else if err := protocols.CheckDurations(durations, 3); err != nil {
		return tdbcParams{}, nil, fmt.Errorf("sim: TDBC: %w", err)
	}

	n := cfg.BlockLength
	p := tdbcParams{
		n1: int(math.Round(durations[0] * float64(n))),
		n2: int(math.Round(durations[1] * float64(n))),
		ka: int(math.Floor(cfg.Rates.Ra * float64(n))),
		kb: int(math.Floor(cfg.Rates.Rb * float64(n))),
	}
	p.n3 = n - p.n1 - p.n2
	if p.n3 < 0 {
		p.n3 = 0
	}
	if p.ka == 0 && p.kb == 0 {
		return tdbcParams{}, nil, fmt.Errorf("sim: block length %d too short for rates %+v", n, cfg.Rates)
	}
	p.kr = p.ka
	if p.kb > p.kr {
		p.kr = p.kb
	}
	return p, durations, nil
}

// RunBitTrueTDBC executes the TDBC protocol bit by bit: random linear codes
// at all three encoders, random erasures on every link, overheard side
// information retained at the terminals, XOR network coding at the relay
// (zero-padded to the longer message per the paper's group construction),
// and Gaussian-elimination decoding that pools all equations a node holds.
// Cancelling ctx stops the run within one chunk; the counts over the
// completed prefix of blocks are returned alongside the (wrapped) error, and
// equal an uncancelled run's with Trials set to that prefix.
func RunBitTrueTDBC(ctx context.Context, cfg BitTrueConfig) (BitTrueResult, error) {
	p, durations, err := deriveTDBCParams(cfg)
	if err != nil {
		return BitTrueResult{}, err
	}
	counts, runErr := runBlocks(ctx, cfg.Trials, cfg.Workers, cfg.Progress,
		func() *tdbcWorker { return newTDBCWorker(cfg.Net, p, cfg.Seed) })
	res := BitTrueResult{
		RelayFailures:    counts[relayFailed],
		TerminalFailures: counts[terminalFailed],
		Trials:           counts.trials(),
		Durations:        durations,
	}
	if res.Trials > 0 {
		res.SuccessProb = float64(counts[decoded]) / float64(res.Trials)
	}
	return res, runErr
}

// tdbcWorker is one worker's bit-true Monte Carlo state: an RNG reseeded
// per block, three preallocated generator matrices re-randomized in
// place per block, every message/codeword buffer, a gf2.Solver with
// pre-reserved scratch, and the equation-accumulation slices. After worker
// construction a block performs no heap allocation (gated by
// TestBitTrueTDBCBlockZeroAllocs).
//
// Rows appended to the accumulators are either generator views
// (gf2.Matrix.RowView) or pooled truncations — read-only until the next
// reset, which is all the solver needs.
type tdbcWorker struct {
	net  ErasureNetwork
	p    tdbcParams
	seed int64
	src  trialSource
	rng  *rand.Rand

	// maskAR, maskBR, maskAB draw 64 link erasures per call (see erasure.go).
	maskAR, maskBR, maskAB prob.WordBernoulli

	codeA, codeB, codeR gf2.Code
	wa, wb, wr          gf2.Vector
	xa, xb, xr          gf2.Vector
	padWa, padWb        gf2.Vector
	decA, decB          gf2.Vector
	gotA, gotB          gf2.Vector
	solver              gf2.Solver

	relayRowsA, relayRowsB []gf2.Vector
	relayBitsA, relayBitsB []int
	// rowsForA/bitsForA accumulate everything terminal a decodes wb from
	// (phase-2 overheard rows, then truncated relay rows); rowsForB likewise
	// for terminal b and wa.
	rowsForA, rowsForB []gf2.Vector
	bitsForA, bitsForB []int
	// truncA/truncB pool the truncated relay rows destined for terminals a
	// and b (kb- and ka-bit vectors), indexed by relay symbol position.
	truncA, truncB []gf2.Vector
}

// newTDBCWorker allocates a worker with every buffer sized to its maximum:
// the accumulators can never outgrow the phase lengths, so steady-state
// blocks never re-slice beyond capacity.
func newTDBCWorker(net ErasureNetwork, p tdbcParams, seed int64) *tdbcWorker {
	w := &tdbcWorker{
		net:  net,
		p:    p,
		seed: seed,

		maskAR: prob.NewWordBernoulli(net.EpsAR),
		maskBR: prob.NewWordBernoulli(net.EpsBR),
		maskAB: prob.NewWordBernoulli(net.EpsAB),

		codeA: gf2.Code{G: gf2.NewMatrix(p.n1, p.ka)},
		codeB: gf2.Code{G: gf2.NewMatrix(p.n2, p.kb)},
		codeR: gf2.Code{G: gf2.NewMatrix(p.n3, p.kr)},
		wa:    gf2.NewVector(p.ka),
		wb:    gf2.NewVector(p.kb),
		wr:    gf2.NewVector(p.kr),
		xa:    gf2.NewVector(p.n1),
		xb:    gf2.NewVector(p.n2),
		xr:    gf2.NewVector(p.n3),
		padWa: gf2.NewVector(p.kr),
		padWb: gf2.NewVector(p.kr),
		decA:  gf2.NewVector(p.ka),
		decB:  gf2.NewVector(p.kb),
		gotA:  gf2.NewVector(p.ka),
		gotB:  gf2.NewVector(p.kb),

		relayRowsA: make([]gf2.Vector, 0, p.n1),
		relayRowsB: make([]gf2.Vector, 0, p.n2),
		relayBitsA: make([]int, 0, p.n1),
		relayBitsB: make([]int, 0, p.n2),
		rowsForA:   make([]gf2.Vector, 0, p.n2+p.n3),
		rowsForB:   make([]gf2.Vector, 0, p.n1+p.n3),
		bitsForA:   make([]int, 0, p.n2+p.n3),
		bitsForB:   make([]int, 0, p.n1+p.n3),
		truncA:     make([]gf2.Vector, p.n3),
		truncB:     make([]gf2.Vector, p.n3),
	}
	for i := range w.truncA {
		w.truncA[i] = gf2.NewVector(p.kb)
		w.truncB[i] = gf2.NewVector(p.ka)
	}
	w.rng = rand.New(&w.src)
	w.solver.Reserve(p.n1, p.ka)
	w.solver.Reserve(p.n2, p.kb)
	w.solver.Reserve(p.n2+p.n3, p.kb)
	w.solver.Reserve(p.n1+p.n3, p.ka)
	return w
}

// reset prepares the accumulators for a new block without releasing storage.
//
//bicoop:noalloc
func (w *tdbcWorker) reset() {
	w.relayRowsA, w.relayRowsB = w.relayRowsA[:0], w.relayRowsB[:0]
	w.relayBitsA, w.relayBitsB = w.relayBitsA[:0], w.relayBitsB[:0]
	w.rowsForA, w.rowsForB = w.rowsForA[:0], w.rowsForB[:0]
	w.bitsForA, w.bitsForB = w.bitsForA[:0], w.bitsForB[:0]
}

// runTrial simulates block t. Its erasures are drawn 64 positions per
// mask in the canonical batch/link order documented in erasure.go, from the
// stream of trial t, so the outcome depends only on (Seed, t).
//
//bicoop:noalloc
func (w *tdbcWorker) runTrial(t int) outcome {
	w.src.seedTrial(w.seed, t)
	w.reset()
	p := w.p
	w.wa.Randomize(w.rng)
	w.wb.Randomize(w.rng)

	// Phase 1: a broadcasts n1 random parities of wa; r and b erase
	// independently (mask order per batch: a-r, then a-b).
	w.codeA.Rerandomize(w.rng)
	_ = w.codeA.EncodeInto(&w.xa, w.wa)
	for base := 0; base < p.n1; base += 64 {
		live := liveLanes(base, p.n1)
		survAR := ^w.maskAR.Mask(w.rng) & live
		survAB := ^w.maskAB.Mask(w.rng) & live
		for m := survAR; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.relayRowsA = append(w.relayRowsA, w.codeA.G.RowView(i))
			w.relayBitsA = append(w.relayBitsA, w.xa.Bit(i))
		}
		for m := survAB; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.rowsForB = append(w.rowsForB, w.codeA.G.RowView(i))
			w.bitsForB = append(w.bitsForB, w.xa.Bit(i))
		}
	}

	// Phase 2: b broadcasts n2 random parities of wb; r and a erase
	// independently (mask order per batch: b-r, then a-b).
	w.codeB.Rerandomize(w.rng)
	_ = w.codeB.EncodeInto(&w.xb, w.wb)
	for base := 0; base < p.n2; base += 64 {
		live := liveLanes(base, p.n2)
		survBR := ^w.maskBR.Mask(w.rng) & live
		survAB := ^w.maskAB.Mask(w.rng) & live
		for m := survBR; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.relayRowsB = append(w.relayRowsB, w.codeB.G.RowView(i))
			w.relayBitsB = append(w.relayBitsB, w.xb.Bit(i))
		}
		for m := survAB; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			w.rowsForA = append(w.rowsForA, w.codeB.G.RowView(i))
			w.bitsForA = append(w.bitsForA, w.xb.Bit(i))
		}
	}

	// Relay decodes both messages (decode-and-forward).
	errA := w.solver.SolveConsistentInto(&w.decA, p.ka, w.relayRowsA, w.relayBitsA)
	errB := w.solver.SolveConsistentInto(&w.decB, p.kb, w.relayRowsB, w.relayBitsB)
	if errA != nil || errB != nil || !w.decA.Equal(w.wa) || !w.decB.Equal(w.wb) {
		return relayFailed
	}

	// Relay XOR-combines in Z_2^kr (zero-padded) and broadcasts n3 random
	// parities of wr.
	_ = netcode.PadCombineInto(&w.wr, w.decA, w.decB)
	w.codeR.Rerandomize(w.rng)
	_ = w.codeR.EncodeInto(&w.xr, w.wr)

	// Each terminal converts every surviving relay parity g·wr into an
	// equation about the peer message: wr = pad(wa) ⊕ pad(wb), so
	// g·pad(wb) = bit ⊕ g·pad(wa) at node a (which knows wa), and
	// symmetrically at node b. Since pad(w) is zero above the message
	// length, the effective row is g truncated to the peer's length.
	// Mask order per batch: a-r, then b-r.
	w.padWa.CopyPrefix(w.wa) // wa zero-padded to kr
	w.padWb.CopyPrefix(w.wb)
	for base := 0; base < p.n3; base += 64 {
		live := liveLanes(base, p.n3)
		survA := ^w.maskAR.Mask(w.rng) & live // a hears the relay via a-r
		survB := ^w.maskBR.Mask(w.rng) & live // b hears the relay via b-r
		for m := survA; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			row := w.codeR.G.RowView(i)
			w.truncA[i].CopyPrefix(row)
			w.rowsForA = append(w.rowsForA, w.truncA[i])
			w.bitsForA = append(w.bitsForA, w.xr.Bit(i)^gf2.Dot(row, w.padWa))
		}
		for m := survB; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			row := w.codeR.G.RowView(i)
			w.truncB[i].CopyPrefix(row)
			w.rowsForB = append(w.rowsForB, w.truncB[i])
			w.bitsForB = append(w.bitsForB, w.xr.Bit(i)^gf2.Dot(row, w.padWb))
		}
	}

	if err := w.solver.SolveConsistentInto(&w.gotB, p.kb, w.rowsForA, w.bitsForA); err != nil || !w.gotB.Equal(w.wb) {
		return terminalFailed
	}
	if err := w.solver.SolveConsistentInto(&w.gotA, p.ka, w.rowsForB, w.bitsForB); err != nil || !w.gotA.Equal(w.wa) {
		return terminalFailed
	}
	return decoded
}
