package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"bicoop/internal/lint"
)

// Detrand enforces the determinism invariant of every result-producing
// package: a simulation's results must be bit-identical for a fixed (Seed,
// Trials) pair across runs, machines and worker counts, which forbids the
// ambient nondeterminism sources — the process-global math/rand generators
// (and their auto-seeded math/rand/v2 cousins) and wall-clock reads.
// Randomness must flow through generators seeded from the spec, such as
// internal/sim's per-worker *rand.Rand reseeded from (Seed, trial) before
// every trial (constructors like rand.New/rand.NewSource/rand.NewPCG stay
// legal); time must not influence results at all.
var Detrand = &lint.Analyzer{
	Name:  "detrand",
	Doc:   "forbid global math/rand functions and wall-clock reads in result-producing packages",
	Match: resultPackage,
	Run:   runDetrand,
}

// forbiddenTimeFuncs are the wall-clock reads that leak nondeterminism into
// results. Timer/ticker constructors are concurrency plumbing and stay out
// of result packages for other reasons; the list stays tight to keep the
// analyzer precise.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Tick":  true,
}

func runDetrand(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Float64) are the seeded path
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				// Constructors build seeded, owned generators; everything
				// else draws from the shared (or auto-seeded) global state.
				if !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(id.Pos(), "nondeterministic: %s.%s uses the global generator; draw from a per-worker seeded *rand.Rand", fn.Pkg().Path(), fn.Name())
				}
			case "time":
				if forbiddenTimeFuncs[fn.Name()] {
					pass.Reportf(id.Pos(), "nondeterministic: time.%s reads the wall clock in a result-producing package", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
