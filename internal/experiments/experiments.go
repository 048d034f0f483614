// Package experiments is the reproduction harness: every figure of the
// paper's evaluation (Figs 3 and 4) and every textual claim around them is a
// named, parameterized, reproducible experiment, plus the ablations and
// Monte Carlo extensions; `bcc list` prints the registry. The cmd/bcc CLI
// and the module-level benchmarks both drive this registry, so the reported
// numbers always come from the same code path.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bicoop/internal/plot"
	"bicoop/internal/sweep"
)

// Config tunes an experiment run.
type Config struct {
	// Quick reduces trial counts and sweep resolutions for use in tests and
	// benchmarks; the full configuration reproduces the figures at
	// publication resolution.
	Quick bool
	// Seed drives every randomized component.
	Seed int64
	// Workers bounds the goroutines sharding the analytic figure sweeps,
	// the region batches, and the outer pool of the Monte Carlo campaigns;
	// zero means GOMAXPROCS. Results are bit-identical for every value (the
	// Monte Carlo experiments pin their own inner worker counts for seed
	// reproducibility, so campaign resharding never changes a random
	// stream).
	Workers int

	// runCtx bounds the run; Run threads its ctx argument here, and every
	// runner hands it to the Monte Carlo simulators and analytic sweeps it
	// drives, so cancelling it stops in-flight work within one trial or
	// chunk.
	runCtx context.Context
}

// ctx resolves the run context. The Background fallback only triggers for a
// zero-value Config handed straight to a runner (tests), never through Run.
func (c Config) ctx() context.Context {
	if c.runCtx != nil {
		return c.runCtx
	}
	return context.Background() //bicoop:allow ctxflow — zero-value Config means an unbounded run by contract
}

// sweepOpts resolves the sharding options for analytic sweeps.
func (c Config) sweepOpts() sweep.Options {
	return sweep.Options{Workers: c.Workers}
}

// Result is a completed experiment: charts and tables ready to render, plus
// free-form findings (the check outcomes recorded in EXPERIMENTS.md).
type Result struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Description states what the experiment reproduces.
	Description string
	// Charts holds zero or more line charts.
	Charts []plot.Chart
	// Regions holds zero or more rate-region plots.
	Regions []plot.RegionPlot
	// Tables holds the numeric tables backing the charts. Purely numeric
	// figures accumulate into streaming plot.ColumnTable sinks (formatted in
	// one pass at render time); tables with string cells remain plot.Table.
	Tables []plot.TableRenderer
	// Findings lists the qualitative outcomes checked against the paper.
	Findings []string
}

// Runner executes one experiment.
type Runner func(cfg Config) (Result, error)

// ErrUnknown reports an unregistered experiment id.
var ErrUnknown = errors.New("experiments: unknown experiment")

// registry maps experiment ids to runners. It is populated at init time by
// the sibling files and never mutated afterwards.
var registry = map[string]entry{}

type entry struct {
	description string
	run         Runner
}

func register(id, description string, run Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = entry{description: description, run: run}
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	return e.description, nil
}

// Run executes the experiment with the given configuration, bounded by ctx.
func Run(ctx context.Context, id string, cfg Config) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("%w: %q (known: %v)", ErrUnknown, id, IDs())
	}
	cfg.runCtx = ctx
	res, err := e.run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Description = e.description
	return res, nil
}
