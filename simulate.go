package bicoop

// simulate.go — the unified Monte Carlo entry point. The three historical
// simulators (Rayleigh-fading outage, bit-true TDBC over erasure links,
// bit-true compute-and-forward MABC) diverged in how they took trial
// counts, seeds, worker pools and reported progress; Engine.Simulate folds
// them behind one SimSpec with a single run contract: Trials/Seed/Workers
// and the Progress callback live on the spec, the context bounds the run,
// and cancellation stops the shard loops within one trial, returning the
// statistics over the trials completed so far.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

// ProgressFunc observes a simulation's completed trial count. Invocations
// are serialized with the count update, so implementations need no locking
// and done is strictly increasing; it is cumulative across the whole run
// and may advance by more than one between calls (workers batch their
// updates).
type ProgressFunc func(done, total int)

// FadingSpec selects the quasi-static Rayleigh fading Monte Carlo: per
// block, every link fades independently around the scenario's mean gains, a
// CSI-adaptive system re-solves each protocol's duration LP, and the fixed
// Target rate pair is probed for outage.
type FadingSpec struct {
	// Scenario gives the mean gains and power.
	Scenario Scenario
	// Protocols to simulate; empty defaults to MABC, TDBC, HBC.
	Protocols []Protocol
	// Target is the fixed rate pair for outage probability (zero disables).
	Target RatePoint
}

// BitTrueTDBCSpec selects the bit-true TDBC simulator: random linear codes,
// overheard side information, XOR network coding at the relay,
// Gaussian-elimination decoding over a three-link erasure network.
type BitTrueTDBCSpec struct {
	// Links is the erasure network.
	Links ErasureLinks
	// Rates is the target message rate pair in bits per channel use.
	Rates RatePoint
	// Durations optionally pins the three phase durations (summing to 1).
	// Nil derives them from the Theorem 3 inner bound; rates outside the
	// bound then return an error.
	Durations []float64
	// BlockLength is the number of channel uses per block.
	BlockLength int
}

// BitTrueMABCSpec selects the bit-true compute-and-forward MABC simulator:
// both terminals transmit parities of their messages over a shared linear
// code simultaneously, the relay decodes only the XOR and rebroadcasts it.
type BitTrueMABCSpec struct {
	// Links is the MAC/broadcast erasure network.
	Links MABCComputeForwardLinks
	// Rate is the common per-terminal message rate in bits per channel use.
	Rate float64
	// Durations are the two phase durations; nil derives the optimal split.
	Durations []float64
	// BlockLength is the number of channel uses per block.
	BlockLength int
}

// SimSpec describes one simulation run for Engine.Simulate. Exactly one of
// Fading, BitTrueTDBC and BitTrueMABC must be set; the remaining fields are
// the run contract shared by every simulator.
type SimSpec struct {
	// Fading, BitTrueTDBC, BitTrueMABC select the simulator (exactly one).
	Fading      *FadingSpec
	BitTrueTDBC *BitTrueTDBCSpec
	BitTrueMABC *BitTrueMABCSpec

	// Trials is the number of independent blocks. Zero selects the fading
	// simulator's default (2000); the bit-true simulators have no default
	// and reject zero. Negative is always ErrInvalidTrials.
	Trials int
	// Seed drives the run deterministically for a fixed (Seed, Trials,
	// Workers) triple.
	Seed int64
	// Workers bounds the goroutines sharding the trials; zero uses the
	// engine's WithWorkers default, which itself defaults to GOMAXPROCS.
	// Changing Workers reshards the per-trial random streams.
	Workers int
	// Progress, when non-nil, observes the cumulative completed trial
	// count. Invocations are serialized by the engine.
	Progress ProgressFunc
}

// SimResult is the outcome of Engine.Simulate. Exactly one of Fading and
// BitTrue is populated, mirroring the spec.
type SimResult struct {
	// Fading holds per-protocol fading statistics for FadingSpec runs.
	Fading map[Protocol]FadingStats
	// BitTrue holds decoding counts for the bit-true runs.
	BitTrue *BitTrueResult
	// Trials is the number of trials actually completed — the configured
	// count unless the context was cancelled mid-run.
	Trials int
	// Durations echoes the phase split used by the bit-true simulators
	// (after LP derivation if the spec left it nil).
	Durations []float64
}

// validate checks the spec's shape and static fields without running it —
// the shared up-front pass of Simulate and SimulateBatch, so a malformed
// campaign fails before any trial runs.
func (spec SimSpec) validate() error {
	if spec.Trials < 0 {
		return fmt.Errorf("%w: %d", ErrInvalidTrials, spec.Trials)
	}
	variants := 0
	for _, set := range [...]bool{spec.Fading != nil, spec.BitTrueTDBC != nil, spec.BitTrueMABC != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		return fmt.Errorf("%w: %d simulators selected, want exactly 1", ErrInvalidSimSpec, variants)
	}
	switch {
	case spec.Fading != nil:
		fs := spec.Fading
		if err := fs.Scenario.Validate(); err != nil {
			return err
		}
		if err := validateRatePoint(fs.Target); err != nil {
			return err
		}
		for _, p := range fs.Protocols {
			if _, err := p.internal(); err != nil {
				return err
			}
		}
	case spec.BitTrueTDBC != nil:
		ts := spec.BitTrueTDBC
		if err := validateBitTrueCommon(spec.Trials, ts.BlockLength, ts.Rates.Ra, ts.Rates.Rb); err != nil {
			return err
		}
		return validateDurations(ts.Durations, 3)
	default:
		ms := spec.BitTrueMABC
		if err := validateBitTrueCommon(spec.Trials, ms.BlockLength, ms.Rate); err != nil {
			return err
		}
		return validateDurations(ms.Durations, 2)
	}
	return nil
}

// validateDurations checks a bit-true spec's pinned phase durations, when
// set, by the rule the rate regions apply (protocols.CheckDurations).
func validateDurations(durations []float64, phases int) error {
	if durations == nil {
		return nil
	}
	if err := protocols.CheckDurations(durations, phases); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSimSpec, err)
	}
	return nil
}

// Simulate runs the simulator selected by spec under the common run
// contract. Cancelling ctx stops the worker pool within one trial (far
// finer than shard granularity); the statistics over the trials completed
// so far are returned alongside the context error, so callers can report
// partial results.
func (e *Engine) Simulate(ctx context.Context, spec SimSpec) (SimResult, error) {
	if err := spec.validate(); err != nil {
		return SimResult{}, err
	}
	return e.runSim(ctx, spec, e.resolveWorkers(spec.Workers))
}

// runSim dispatches a validated spec to its simulator with a resolved
// worker count.
func (e *Engine) runSim(ctx context.Context, spec SimSpec, workers int) (SimResult, error) {
	switch {
	case spec.Fading != nil:
		return e.simulateFading(ctx, spec, workers)
	case spec.BitTrueTDBC != nil:
		return e.simulateBitTrueTDBC(ctx, spec, workers)
	default:
		return e.simulateBitTrueMABC(ctx, spec, workers)
	}
}

// simWrap converts a simulator error: context cancellation passes through
// (so errors.Is(err, context.Canceled) works at the facade), everything
// else is prefixed.
func simWrap(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("bicoop: %w", err)
}

// The simulate* helpers below assume a spec that already passed validate()
// — both entry points (Simulate and SimulateBatch) run it up front, so the
// static checks live in exactly one place.

func (e *Engine) simulateFading(ctx context.Context, spec SimSpec, workers int) (SimResult, error) {
	fs := spec.Fading
	protosPub := fs.Protocols
	if len(protosPub) == 0 {
		protosPub = []Protocol{MABC, TDBC, HBC}
	}
	protosInt := make([]protocols.Protocol, 0, len(protosPub))
	for _, p := range protosPub {
		ip, _ := p.internal() // validate rejected unknown protocols
		protosInt = append(protosInt, ip)
	}
	trials := spec.Trials
	if trials == 0 {
		trials = 2000
	}
	is := fs.Scenario.internal()
	res, runErr := sim.RunOutage(ctx, sim.OutageConfig{
		Mean:      is.G,
		P:         is.P,
		Protocols: protosInt,
		Target:    protocols.RatePair{Ra: fs.Target.Ra, Rb: fs.Target.Rb},
		Trials:    trials,
		Seed:      spec.Seed,
		Workers:   workers,
		Progress:  spec.Progress,
	})
	if runErr != nil && res.ByProtocol == nil {
		return SimResult{}, simWrap(runErr)
	}
	out := SimResult{Fading: make(map[Protocol]FadingStats, len(protosPub))}
	for i, p := range protosPub {
		st := res.ByProtocol[protosInt[i]]
		out.Fading[p] = FadingStats{MeanOptSumRate: st.MeanOptSumRate, OutageProb: st.OutageProb}
		out.Trials = st.Trials
	}
	return out, simWrap(runErr)
}

// validateBitTrueCommon checks the fields shared by both bit-true specs.
func validateBitTrueCommon(trials, blockLength int, rates ...float64) error {
	if trials <= 0 {
		return fmt.Errorf("%w: bit-true simulation needs a positive Trials, got %d", ErrInvalidTrials, trials)
	}
	if blockLength <= 0 {
		return fmt.Errorf("%w: %d", ErrInvalidBlockLength, blockLength)
	}
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("%w: %g", ErrInvalidRates, r)
		}
	}
	return nil
}

func (e *Engine) simulateBitTrueTDBC(ctx context.Context, spec SimSpec, workers int) (SimResult, error) {
	ts := spec.BitTrueTDBC
	res, runErr := sim.RunBitTrueTDBC(ctx, sim.BitTrueConfig{
		Net:         sim.ErasureNetwork{EpsAR: ts.Links.EpsAR, EpsBR: ts.Links.EpsBR, EpsAB: ts.Links.EpsAB},
		Rates:       protocols.RatePair{Ra: ts.Rates.Ra, Rb: ts.Rates.Rb},
		Durations:   ts.Durations,
		BlockLength: ts.BlockLength,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
		Workers:     workers,
		Progress:    spec.Progress,
	})
	if runErr != nil && res.Durations == nil {
		return SimResult{}, simWrap(runErr)
	}
	return SimResult{
		BitTrue: &BitTrueResult{
			SuccessProb:      res.SuccessProb,
			RelayFailures:    res.RelayFailures,
			TerminalFailures: res.TerminalFailures,
		},
		Trials:    res.Trials,
		Durations: res.Durations,
	}, simWrap(runErr)
}

// CampaignSpec declares a simulation campaign: many SimSpecs — a waterfall
// scale axis, a seed family, an SNR family, or any mix of simulators —
// executed as one sharded batch over the same generic core that runs the
// analytic grids.
type CampaignSpec struct {
	// Specs are the runs, executed with deterministic per-spec seeds (each
	// spec's own Seed) so the campaign's merged statistics are bit-identical
	// for every outer worker count.
	Specs []SimSpec
	// Workers bounds how many runs execute concurrently (the outer pool);
	// zero uses the engine's WithWorkers default, then GOMAXPROCS. Inside a
	// campaign, a spec whose own Workers field is zero runs its trials on
	// ONE goroutine — not the engine default — so resharding the campaign
	// (or moving it across machines) can never change a per-trial random
	// stream. Set a spec's Workers explicitly to shard its trials; results
	// then stay deterministic per (Seed, Trials, Workers) as usual.
	//
	// Progress caveat: each spec's Progress callback keeps its serialized,
	// strictly-increasing contract within that spec's run, but with
	// Workers > 1 DIFFERENT specs run concurrently — a single callback
	// shared across specs is invoked from multiple goroutines at once and
	// must be goroutine-safe. Give each spec its own Progress (or
	// aggregate through the streamed yield, which is always serialized).
	Workers int
	// Start resumes the campaign past the first Start specs: an earlier
	// run already completed and delivered them, so they are neither re-run
	// nor yielded again. The returned slice still spans every spec; entries
	// below Start are zero values (their results live with the run that
	// produced them). Feed a Checkpointer's last saved value back here.
	Start int
	// Checkpoint, when non-nil, observes the completed-run watermark as it
	// advances (see Checkpointer). A Save error halts the campaign.
	Checkpoint Checkpointer
	// Retry, when non-nil, re-runs transiently failed simulation runs (see
	// RetryPolicy). Runs are seed-deterministic, so a retry reproduces
	// exactly the statistics an untroubled first attempt would have.
	Retry *RetryPolicy
}

// Validate checks the campaign without running it: at least one spec, every
// spec statically valid, and the resume offset non-negative. SimulateBatch
// runs the same checks; wire-facing callers (the bccd job service) validate
// at admission time.
func (spec CampaignSpec) Validate() error {
	if len(spec.Specs) == 0 {
		return fmt.Errorf("%w: campaign with no specs", ErrInvalidSimSpec)
	}
	for i, s := range spec.Specs {
		if err := s.validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return validateResume(spec.Start, ErrInvalidSimSpec)
}

// SimulateBatch executes a campaign. Completed results are streamed to
// yield (when non-nil) in spec order regardless of completion order, and
// the collected results are returned in the same order. A spec error halts
// the campaign with the first error in spec order; cancelling ctx stops
// every in-flight run within one trial. On early stop the returned slice
// holds the contiguous prefix of fully completed runs (a run interrupted
// mid-flight is discarded — campaign results are always whole runs).
func (e *Engine) SimulateBatch(ctx context.Context, spec CampaignSpec, yield func(i int, r SimResult) error) ([]SimResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	results := make([]SimResult, len(spec.Specs))
	var yieldErr error
	// ChunkSize 1: each point is a whole simulation run, so the outer pool
	// pipelines runs individually. The specs are mutually independent and
	// individually deterministic, so — unlike the warm-started LP grids —
	// no per-chunk state exists and any chunking would only serialize runs.
	// (With ChunkSize 1 the checkpoint watermark and Start are plain spec
	// counts — no chunk-boundary flooring.)
	prefix, err := sweep.RunCore(ctx, len(spec.Specs),
		sweep.CoreOptions{
			Workers:    e.resolveWorkers(spec.Workers),
			ChunkSize:  1,
			Start:      spec.Start,
			Checkpoint: spec.Checkpoint,
			Retry:      spec.Retry.internal(),
		},
		sweep.Hooks[struct{}]{},
		func(_ struct{}, lo, hi int) error {
			for i := lo; i < hi; i++ {
				s := spec.Specs[i]
				workers := s.Workers
				if workers <= 0 {
					workers = 1 // campaign determinism default (see CampaignSpec.Workers)
				}
				res, err := e.runSim(ctx, s, workers)
				if err != nil {
					return fmt.Errorf("spec %d: %w", i, err)
				}
				results[i] = res
			}
			return nil
		},
		func(lo, hi int) error {
			if yield == nil {
				return nil
			}
			for i := lo; i < hi; i++ {
				if err := yield(i, results[i]); err != nil {
					yieldErr = err
					return err
				}
			}
			return nil
		})
	switch {
	case err == nil:
		return results[:prefix], nil
	case yieldErr != nil && errors.Is(err, yieldErr):
		return results[:prefix], yieldErr // the caller's own error, verbatim
	default:
		return results[:prefix], simWrap(translateResilience(err))
	}
}

func (e *Engine) simulateBitTrueMABC(ctx context.Context, spec SimSpec, workers int) (SimResult, error) {
	ms := spec.BitTrueMABC
	res, runErr := sim.RunBitTrueMABC(ctx, sim.MABCBitTrueConfig{
		EpsMAC: ms.Links.EpsMAC, EpsRA: ms.Links.EpsRA, EpsRB: ms.Links.EpsRB,
		Rate:        ms.Rate,
		Durations:   ms.Durations,
		BlockLength: ms.BlockLength,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
		Workers:     workers,
		Progress:    spec.Progress,
	})
	if runErr != nil && res.Durations == nil {
		return SimResult{}, simWrap(runErr)
	}
	return SimResult{
		BitTrue: &BitTrueResult{
			SuccessProb:      res.SuccessProb,
			RelayFailures:    res.RelayFailures,
			TerminalFailures: res.TerminalFailures,
		},
		Trials:    res.Trials,
		Durations: res.Durations,
	}, simWrap(runErr)
}
