package simplex

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bicoop/internal/xmath"
)

// warmProblem is an inequality-form LP of the shape the evaluator's
// equality-free phase-duration LPs take (non-negative RHS, all-slack start).
func warmProblem(shift float64) Problem {
	return Problem{
		C: []float64{1, 1, 0, 0, 0},
		AUb: [][]float64{
			{1, 0, 1.14 + shift, 0, 0},
			{1, 0, 0.26 + shift, 0, 2.05},
			{0, 1, 0, 2.05 + shift, 0},
			{0, 1, 0, 0.26, 1.0 + shift},
			{1, 1, 1.0, 2.05 + shift, 0},
			{0, 0, 1, 1, 1},
		},
		BUb: []float64{1.14, 0.26, 2.05, 0.26 + shift, 1.0, 1},
	}
}

// TestSolveWarmMatchesCold sweeps a perturbation axis, warm-starting each
// solve from the previous basis, and pins the warm objective to the cold one
// at 1e-12 — the contract the grid sweeps rely on.
func TestSolveWarmMatchesCold(t *testing.T) {
	var warmWS, coldWS Workspace
	var basis []int
	for i := 0; i <= 40; i++ {
		shift := -0.2 + 0.01*float64(i)
		p := warmProblem(shift)
		warm, err := p.SolveWarmIn(&warmWS, basis)
		if err != nil {
			t.Fatalf("shift %g: warm solve: %v", shift, err)
		}
		cold, err := p.SolveIn(&coldWS)
		if err != nil {
			t.Fatalf("shift %g: cold solve: %v", shift, err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-12 {
			t.Errorf("shift %g: warm objective %.17g, cold %.17g", shift, warm.Objective, cold.Objective)
		}
		for j := range cold.X {
			if math.Abs(warm.X[j]-cold.X[j]) > 1e-9 {
				t.Errorf("shift %g: x[%d] warm %g cold %g", shift, j, warm.X[j], cold.X[j])
			}
		}
		basis = warmWS.Basis(basis[:0])
	}
}

// TestSolveWarmRepeatIsInstant re-solves the identical problem from its own
// optimal basis: the hint verifies, so the solve is one factorization and no
// pivots, and it returns SolveIn's bits.
func TestSolveWarmRepeatIsInstant(t *testing.T) {
	var ws Workspace
	p := warmProblem(0)
	first, err := p.SolveIn(&ws)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.X...)
	basis := ws.Basis(nil)
	again, err := p.SolveWarmIn(&ws, basis)
	if err != nil {
		t.Fatal(err)
	}
	if again.Objective != first.Objective {
		t.Errorf("objective drifted on identical re-solve: %.17g vs %.17g", again.Objective, first.Objective)
	}
	for j := range want {
		if again.X[j] != want[j] {
			t.Errorf("x[%d] drifted on identical re-solve: %.17g vs %.17g", j, again.X[j], want[j])
		}
	}
	if again.Iterations != 0 {
		t.Errorf("warm re-solve took %d iterations, want 0", again.Iterations)
	}
}

// TestSolveWarmVerifiedIsBitwiseCold sweeps the perturbation axis with each
// solve hinted by the previous basis. Wherever the hint verifies (zero
// pivots) and the cold solve ends in that same basis, the two must agree
// bit for bit: both read the solution off the same factorization.
func TestSolveWarmVerifiedIsBitwiseCold(t *testing.T) {
	var warmWS, coldWS Workspace
	var hint, coldBasis []int
	verified, compared := 0, 0
	for i := 0; i <= 400; i++ {
		p := warmProblem(-0.2 + 0.001*float64(i))
		warm, err := p.SolveWarmIn(&warmWS, hint)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.SolveIn(&coldWS)
		if err != nil {
			t.Fatal(err)
		}
		coldBasis = coldWS.Basis(coldBasis[:0])
		if warm.Iterations == 0 {
			verified++
			if got := warmWS.Basis(nil); !slices.Equal(got, hint) {
				t.Fatalf("step %d: verified solve reports basis %v, hint was %v", i, got, hint)
			}
			if slices.Equal(hint, coldBasis) {
				compared++
				if warm.Objective != cold.Objective || !slices.Equal(warm.X, cold.X) {
					t.Errorf("step %d: verified %v (%.17g) vs cold %v (%.17g)", i, warm.X, warm.Objective, cold.X, cold.Objective)
				}
			}
		}
		hint = warmWS.Basis(hint[:0])
	}
	// Adjacent points share their optimal basis almost everywhere on this
	// axis; a collapse of the verified share means verification broke.
	if verified < 350 || compared < 350 {
		t.Errorf("verified %d and compared %d of 401 hinted solves, want ≥ 350 each", verified, compared)
	}
}

// TestSolveWarmVerifiesShuffledOptimalBasis hands SolveWarmIn the cold
// optimum's basis in a random row order. The set is still optimal, so it
// must verify in zero pivots whatever order partial pivoting then swaps
// the factor rows into, and reproduce the cold optimum.
func TestSolveWarmVerifiesShuffledOptimalBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var coldWS, warmWS Workspace
	for trial := 0; trial < 300; trial++ {
		n, m := 2+rng.Intn(5), 2+rng.Intn(6)
		p := Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			p.AUb = append(p.AUb, row)
			p.BUb = append(p.BUb, 0.5+rng.Float64())
		}
		for j := 0; j < n; j++ { // box rows keep the optimum finite
			row := make([]float64, n)
			row[j] = 1
			p.AUb = append(p.AUb, row)
			p.BUb = append(p.BUb, 10)
		}
		cold, err := p.SolveIn(&coldWS)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hint := coldWS.Basis(nil)
		rng.Shuffle(len(hint), func(a, b int) { hint[a], hint[b] = hint[b], hint[a] })
		warm, err := p.SolveWarmIn(&warmWS, hint)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if warm.Iterations != 0 {
			t.Errorf("trial %d: optimal basis %v rejected (%d pivots)", trial, hint, warm.Iterations)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Errorf("trial %d: objective %.17g, cold %.17g", trial, warm.Objective, cold.Objective)
		}
	}
}

// TestSolveWarmRejectedHintsFallBack feeds hints that factor but are not
// optimal — primal infeasible, dual infeasible — and a singular one. Each
// must fall back to the cold path (same pivot count) and match its optimum.
func TestSolveWarmRejectedHintsFallBack(t *testing.T) {
	// max x0 + x1 s.t. x0 ≤ 1, x1 ≤ 1, x0 + x1 ≤ 1.5. Basis {x0, x1, s2}
	// sets s2 = -0.5 (primal infeasible) at the super-optimal objective 2,
	// with every reduced cost ≤ 0.
	box := Problem{
		C:   []float64{1, 1},
		AUb: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		BUb: []float64{1, 1, 1.5},
	}
	cases := []struct {
		name string
		p    Problem
		hint []int
	}{
		{"primal infeasible", box, []int{0, 1, 4}},
		// The all-slack basis is feasible, but x0 prices in at +1.
		{"dual infeasible", warmProblem(0), []int{5, 6, 7, 8, 9, 10}},
		// Column 0 is e0 + e1 + e4, the sum of three hinted slack columns.
		{"singular", warmProblem(0), []int{0, 5, 6, 9, 7, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := tc.p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			var ws Workspace
			got, err := tc.p.SolveWarmIn(&ws, tc.hint)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != cold.Iterations || got.Iterations == 0 {
				t.Errorf("took %d pivots, want the cold path's %d", got.Iterations, cold.Iterations)
			}
			if math.Abs(got.Objective-cold.Objective) > 1e-12 {
				t.Errorf("objective %.17g, cold %.17g", got.Objective, cold.Objective)
			}
			for j := range cold.X {
				if math.Abs(got.X[j]-cold.X[j]) > 1e-12 {
					t.Errorf("x[%d] = %.17g, cold %.17g", j, got.X[j], cold.X[j])
				}
			}
		})
	}
}

// TestSolveWarmBadHints proves every unusable hint falls back to the cold
// path and still returns the true optimum.
func TestSolveWarmBadHints(t *testing.T) {
	p := warmProblem(0)
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m := len(p.AUb)
	hints := map[string][]int{
		"nil":          nil,
		"short":        {0},
		"out of range": {0, 1, 2, 3, 4, 99},
		"negative":     {0, 1, 2, 3, 4, -1},
		"duplicate":    {0, 0, 1, 2, 3, 4},
		"all slack":    {5, 6, 7, 8, 9, 10},
	}
	for name, hint := range hints {
		if name != "nil" && name != "short" && len(hint) != m {
			t.Fatalf("bad fixture %q", name)
		}
		var ws Workspace
		got, err := p.SolveWarmIn(&ws, hint)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-12 {
			t.Errorf("%s: objective %g, want %g", name, got.Objective, want.Objective)
		}
	}
}

// TestSolveWarmRejectsEqualityForm pins that problems outside the inequality
// fast shape (equality rows, negative RHS) ignore the hint but still solve.
func TestSolveWarmRejectsEqualityForm(t *testing.T) {
	p := Problem{
		C:   []float64{1, 1, 0, 0, 0},
		AUb: [][]float64{{1, 0, -1.14, 0, 0}, {0, 1, 0, -2.05, 0}, {1, 1, -1.0, -2.05, 0}},
		BUb: []float64{0, 0, 0},
		AEq: [][]float64{{0, 0, 1, 1, 1}},
		BEq: []float64{1},
	}
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	got, err := p.SolveWarmIn(&ws, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-12 {
		t.Errorf("objective %g, want %g", got.Objective, want.Objective)
	}
}

// TestSolveWarmUnbounded pins the error contract from a feasible warm basis.
func TestSolveWarmUnbounded(t *testing.T) {
	p := Problem{
		C:   []float64{1, 0},
		AUb: [][]float64{{0, 1}},
		BUb: []float64{1},
	}
	var ws Workspace
	if _, err := p.SolveIn(&ws); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("cold err = %v, want ErrUnbounded", err)
	}
	if _, err := p.SolveWarmIn(&ws, []int{2}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("warm err = %v, want ErrUnbounded", err)
	}
}

// TestSolveWarmZeroAlloc gates the warm path's steady-state allocation, like
// the SolveIn gate in workspace_test.go.
func TestSolveWarmZeroAlloc(t *testing.T) {
	var ws Workspace
	p := warmProblem(0)
	if _, err := p.SolveIn(&ws); err != nil {
		t.Fatal(err)
	}
	basis := ws.Basis(make([]int, 0, len(p.AUb)))
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.SolveWarmIn(&ws, basis); err != nil {
			t.Fatal(err)
		}
		basis = ws.Basis(basis[:0])
	}); allocs != 0 {
		t.Errorf("warm solve allocates %.1f/op, want 0", allocs)
	}
}

// hbcProblem builds the LP the evaluator solves for the HBC inner bound's
// sum rate (Theorem 5) at a relay placement with link gains -7/0/5 dB
// (a-b/a-r/b-r): variables [Ra, Rb, Δ1, Δ2, Δ3], one row per constraint
// with Δ4 = 1 - Δ1 - Δ2 - Δ3 substituted out, plus Δ1 + Δ2 + Δ3 ≤ 1.
func hbcProblem(powerDB float64) Problem {
	p := xmath.FromDB(powerDB)
	gab, gar, gbr := xmath.FromDB(-7), xmath.FromDB(0), xmath.FromDB(5)
	ar, br, ab := xmath.C(p*gar), xmath.C(p*gbr), xmath.C(p*gab)
	mac := xmath.C(p * (gar + gbr))
	// Each constraint: rate coefficients and per-phase capacities Δ1..Δ4.
	cons := []struct {
		ra, rb float64
		caps   [4]float64
	}{
		{1, 0, [4]float64{ar, 0, ar, 0}},
		{1, 0, [4]float64{ab, 0, 0, br}},
		{0, 1, [4]float64{0, br, br, 0}},
		{0, 1, [4]float64{0, ab, 0, ar}},
		{1, 1, [4]float64{ar, br, mac, 0}},
	}
	prob := Problem{C: []float64{1, 1, 0, 0, 0}}
	for _, c := range cons {
		row := []float64{c.ra, c.rb, 0, 0, 0}
		for l := 0; l < 3; l++ {
			row[2+l] = c.caps[3] - c.caps[l]
		}
		prob.AUb = append(prob.AUb, row)
		prob.BUb = append(prob.BUb, c.caps[3])
	}
	prob.AUb = append(prob.AUb, []float64{0, 0, 1, 1, 1})
	prob.BUb = append(prob.BUb, 1)
	return prob
}

// powerAxis is the perturbation axis the solve benchmarks walk: hbcProblem
// over 0–20 dB in 0.1 dB steps, a sweep's power axis.
func powerAxis() []Problem {
	axis := make([]Problem, 201)
	for i := range axis {
		axis[i] = hbcProblem(0.1 * float64(i))
	}
	return axis
}

// BenchmarkSimplexSolveCold solves the evaluator's inequality-form LP along
// the power axis with a reused Workspace, cold every time. One op is one
// walk of the axis (201 solves).
func BenchmarkSimplexSolveCold(b *testing.B) {
	axis := powerAxis()
	var ws Workspace
	if _, err := axis[0].SolveIn(&ws); err != nil { // size the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range axis {
			if _, err := p.SolveIn(&ws); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimplexSolveWarm walks the same axis, hinting each solve with
// the previous point's optimal basis — the sweep's warm start, where a
// verified hint costs one factorization instead of a simplex run. Each walk
// starts unhinted, like a sweep chunk after its warm-state reset.
func BenchmarkSimplexSolveWarm(b *testing.B) {
	axis := powerAxis()
	var ws Workspace
	if _, err := axis[0].SolveIn(&ws); err != nil { // size the workspace
		b.Fatal(err)
	}
	basis := make([]int, 0, len(axis[0].AUb))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis = basis[:0]
		for _, p := range axis {
			if _, err := p.SolveWarmIn(&ws, basis); err != nil {
				b.Fatal(err)
			}
			basis = ws.Basis(basis[:0])
		}
	}
}
