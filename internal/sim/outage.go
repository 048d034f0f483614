// Package sim provides the Monte Carlo layer of the reproduction: a
// quasi-static Rayleigh block-fading simulator for the Gaussian model of
// Section IV (ergodic adaptive-rate throughput and fixed-rate outage), and
// bit-true simulators of the TDBC and compute-and-forward MABC protocols
// over erasure networks that execute the actual random-coding/binning/XOR
// machinery of Theorem 3 with random linear codes.
//
// Every simulator runs its trials as fixed-size chunks on sweep.RunCore
// (trials.go), and trial t draws from a random stream seeded from (Seed, t),
// so results are a function of (Seed, Trials) only: Workers changes only
// speed, and a cancelled run stops within one chunk. Each worker owns a
// protocols.Evaluator (or its codes and GF(2) solver) and accumulates into
// preallocated storage, so the per-block path (draw fading, re-solve the
// duration LP per protocol, probe target feasibility) performs no
// steady-state heap allocation.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"bicoop/internal/channel"
	"bicoop/internal/protocols"
)

// Errors returned by this package.
var (
	ErrNoTrials  = errors.New("sim: trials must be positive")
	ErrNoTargets = errors.New("sim: no protocols requested")
)

// OutageConfig parameterizes a fading Monte Carlo run.
type OutageConfig struct {
	// Mean holds the mean link gains; per block, each link fades
	// independently (Rayleigh) around its mean.
	Mean channel.Gains
	// P is the per-node transmit power.
	P float64
	// Protocols to simulate (inner bounds). Empty is an error.
	Protocols []protocols.Protocol
	// Target is the fixed rate pair used for outage probability; a zero
	// pair disables outage accounting.
	Target protocols.RatePair
	// Trials is the number of fading blocks.
	Trials int
	// Seed makes the run reproducible: results are a function of (Seed,
	// Trials) only, since trial t draws from a stream seeded from (Seed, t).
	Seed int64
	// Workers bounds the goroutines running trial chunks; non-positive
	// means GOMAXPROCS. It changes only speed, never results.
	Workers int
	// Progress, when non-nil, is invoked with the cumulative completed trial
	// count once per merged chunk. Invocations are serialized and the
	// reported count is strictly increasing, ending at Trials.
	Progress func(done, total int)
}

// OutageStats aggregates per-protocol results of a run.
type OutageStats struct {
	// MeanOptSumRate is the mean over fading blocks of the CSI-adaptive
	// optimal sum rate (the expected throughput of a system that re-solves
	// the duration LP every block).
	MeanOptSumRate float64
	// OutageProb is the fraction of blocks in which the fixed Target rate
	// pair was infeasible. Zero if no target was set.
	OutageProb float64
	// Trials echoes the trial count for downstream confidence intervals.
	Trials int
}

// OutageResult is the full result of RunOutage.
type OutageResult struct {
	ByProtocol map[protocols.Protocol]OutageStats
}

// hasTarget reports whether outage accounting is enabled — the single
// definition used by both the workers and the result merge.
func (cfg OutageConfig) hasTarget() bool {
	return cfg.Target.Ra > 0 || cfg.Target.Rb > 0
}

// outageTally accumulates fading trials, indexed by protocol position (not
// maps) so a trial costs no allocation.
type outageTally struct {
	sum     []float64
	outages []int
}

func newOutageTally(np int) *outageTally {
	return &outageTally{sum: make([]float64, np), outages: make([]int, np)}
}

// outageWorker is one worker's Monte Carlo state: a fading stream reseeded
// per trial and a reusable protocol evaluator.
type outageWorker struct {
	protos    []protocols.Protocol
	p         float64
	target    protocols.RatePair
	hasTarget bool
	ev        *protocols.Evaluator
	seed      int64
	src       trialSource
	fading    *channel.Fading
}

// newOutageWorker builds a worker. cfg.Mean must already be valid.
func newOutageWorker(cfg OutageConfig) *outageWorker {
	w := &outageWorker{
		protos:    cfg.Protocols,
		p:         cfg.P,
		target:    cfg.Target,
		hasTarget: cfg.hasTarget(),
		ev:        protocols.NewEvaluator(),
		seed:      cfg.Seed,
	}
	fading, err := channel.NewFading(cfg.Mean, rand.New(&w.src))
	if err != nil {
		// Unreachable: the gains were validated and the generator is set.
		panic(err)
	}
	w.fading = fading
	return w
}

// runTrial simulates fading block t into acc: reseed the stream for trial
// t, draw instantaneous gains, evaluate the closed-form link informations
// once, then re-solve the optimal-duration sum-rate LP for every protocol
// and probe the fixed target's feasibility. This is the per-block kernel the
// allocation regression tests and BenchmarkOutageTrial measure.
func (w *outageWorker) runTrial(t int, acc *outageTally) error {
	w.src.seedTrial(w.seed, t)
	inst := w.fading.Draw()
	li, err := protocols.LinkInfosFromScenario(protocols.Scenario{P: w.p, G: inst})
	if err != nil {
		return err
	}
	for pi, proto := range w.protos {
		v, err := w.ev.SumRateLinks(proto, protocols.BoundInner, li)
		if err != nil {
			return err
		}
		acc.sum[pi] += v
		if w.hasTarget {
			feas, err := w.ev.FeasibleLinks(proto, protocols.BoundInner, li, w.target)
			if err != nil {
				return err
			}
			if !feas {
				acc.outages[pi]++
			}
		}
	}
	return nil
}

// RunOutage executes the fading Monte Carlo. Cancelling ctx stops the run
// within one chunk; the statistics over the completed prefix of trials are
// returned alongside the (wrapped) error, so callers can report partial
// results. They equal an uncancelled run's with Trials set to that prefix.
func RunOutage(ctx context.Context, cfg OutageConfig) (OutageResult, error) {
	if cfg.Trials <= 0 {
		return OutageResult{}, ErrNoTrials
	}
	if len(cfg.Protocols) == 0 {
		return OutageResult{}, ErrNoTargets
	}
	if err := (protocols.Scenario{P: cfg.P, G: cfg.Mean}).Validate(); err != nil {
		return OutageResult{}, fmt.Errorf("sim: %w", err)
	}
	np := len(cfg.Protocols)
	total := newOutageTally(np)
	done, runErr := runTrials(ctx, cfg.Trials, cfg.Workers, fadingChunk, cfg.Progress,
		func() *outageWorker { return newOutageWorker(cfg) },
		func() *outageTally { return newOutageTally(np) },
		func(w *outageWorker, slot *outageTally, lo, hi int) error {
			clear(slot.sum)
			clear(slot.outages)
			for t := lo; t < hi; t++ {
				if err := w.runTrial(t, slot); err != nil {
					return err
				}
			}
			return nil
		},
		func(slot *outageTally) {
			for pi := range total.sum {
				total.sum[pi] += slot.sum[pi]
				total.outages[pi] += slot.outages[pi]
			}
		})

	out := OutageResult{ByProtocol: make(map[protocols.Protocol]OutageStats, np)}
	for pi, proto := range cfg.Protocols {
		st := OutageStats{Trials: done}
		if done > 0 {
			st.MeanOptSumRate = total.sum[pi] / float64(done)
			if cfg.hasTarget() {
				st.OutageProb = float64(total.outages[pi]) / float64(done)
			}
		}
		out.ByProtocol[proto] = st
	}
	return out, runErr
}
