package gf2

import (
	"errors"
	"math/rand"
	"testing"
)

// --- Reference implementation ---
//
// refSolve is the original clone-based, bit-level Gaussian elimination this
// package shipped before the word-level Solver: full reduction over a cloned
// row matrix with a separate RHS vector. It is kept here as an independent
// oracle for the property tests — intentionally naive and obviously correct.

func refSolve(m Matrix, b Vector) (Vector, error) {
	if b.Len() != m.Rows() {
		return Vector{}, ErrShape
	}
	work := m.Clone()
	rhs := b.Clone()
	rank := 0
	var pivots []int
	for col := 0; col < work.Cols() && rank < work.Rows(); col++ {
		sel := -1
		for i := rank; i < work.Rows(); i++ {
			if work.At(i, col) == 1 {
				sel = i
				break
			}
		}
		if sel == -1 {
			continue
		}
		if sel != rank {
			for j := 0; j < work.Cols(); j++ {
				bi, bs := work.At(rank, j), work.At(sel, j)
				work.Set(rank, j, bs)
				work.Set(sel, j, bi)
			}
			rb, sb := rhs.Bit(rank), rhs.Bit(sel)
			rhs.Set(rank, sb)
			rhs.Set(sel, rb)
		}
		for i := 0; i < work.Rows(); i++ {
			if i != rank && work.At(i, col) == 1 {
				for j := 0; j < work.Cols(); j++ {
					work.Set(i, j, work.At(i, j)^work.At(rank, j))
				}
				rhs.Set(i, rhs.Bit(i)^rhs.Bit(rank))
			}
		}
		pivots = append(pivots, col)
		rank++
	}
	for i := rank; i < work.Rows(); i++ {
		if rhs.Bit(i) == 1 {
			return Vector{}, ErrInconsistent
		}
	}
	if rank < m.Cols() {
		return Vector{}, ErrUnderdetermined
	}
	x := NewVector(m.Cols())
	for i, col := range pivots {
		x.Set(col, rhs.Bit(i))
	}
	return x, nil
}

// randomSystem draws a random rows-by-cols system. kind shapes it:
// "square"/"tall"/"wide" control dimensions only; "rankdef" forces duplicate
// and XOR-dependent rows; "consistent" builds b = m·x from a planted x.
func randomSystem(t *testing.T, r *rand.Rand, kind string) (Matrix, Vector) {
	t.Helper()
	var rows, cols int
	switch kind {
	case "square":
		cols = 1 + r.Intn(90)
		rows = cols
	case "tall":
		cols = 1 + r.Intn(70)
		rows = cols + 1 + r.Intn(60)
	case "wide":
		rows = 1 + r.Intn(70)
		cols = rows + 1 + r.Intn(60)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	m := RandomMatrix(rows, cols, r)
	if kind == "tall" && r.Intn(2) == 0 {
		// Rank-deficient variant: overwrite some rows with sums of others.
		for i := 0; i < rows/3; i++ {
			a, b := r.Intn(rows), r.Intn(rows)
			sum, err := m.Row(a).Xor(m.Row(b))
			if err != nil {
				t.Fatal(err)
			}
			dst := r.Intn(rows)
			for j := 0; j < cols; j++ {
				m.Set(dst, j, sum.Bit(j))
			}
		}
	}
	var b Vector
	if r.Intn(2) == 0 {
		// Consistent: plant a solution.
		x := RandomVector(cols, r)
		b, _ = m.MulVec(x)
	} else {
		// Arbitrary RHS: may be consistent or not — the oracle decides.
		b = RandomVector(rows, r)
	}
	return m, b
}

// matrixRows returns the rows of m as views, for the SolveInto signature.
func matrixRows(m Matrix) ([]Vector, []int) {
	rows := make([]Vector, m.Rows())
	for i := range rows {
		rows[i] = m.RowView(i)
	}
	return rows, nil
}

// TestSolverMatchesReference is the core property test: across randomized
// square, tall, wide (underdetermined), rank-deficient, consistent and
// inconsistent systems, Solver.SolveInto must return exactly the reference
// solver's solution or exactly its error class.
func TestSolverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var s Solver
	counts := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		kind := []string{"square", "tall", "wide"}[trial%3]
		m, b := randomSystem(t, r, kind)
		want, wantErr := refSolve(m, b)

		rows, _ := matrixRows(m)
		bits := make([]int, m.Rows())
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		got := NewVector(m.Cols())
		err := s.SolveInto(&got, m.Cols(), rows, bits)

		switch {
		case wantErr == nil:
			counts["unique"]++
			if err != nil {
				t.Fatalf("trial %d (%s): SolveInto err %v, reference solved", trial, kind, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s): solution mismatch", trial, kind)
			}
		case errors.Is(wantErr, ErrInconsistent):
			counts["inconsistent"]++
			if !errors.Is(err, ErrInconsistent) {
				t.Fatalf("trial %d (%s): err %v, want ErrInconsistent", trial, kind, err)
			}
		case errors.Is(wantErr, ErrUnderdetermined):
			counts["underdetermined"]++
			if !errors.Is(err, ErrUnderdetermined) {
				t.Fatalf("trial %d (%s): err %v, want ErrUnderdetermined", trial, kind, err)
			}
		default:
			t.Fatalf("trial %d: unexpected reference error %v", trial, wantErr)
		}

		// The legacy wrappers must agree with the Solver they now route to.
		mGot, mErr := m.Solve(b)
		if (mErr == nil) != (err == nil) || (err == nil && !mGot.Equal(got)) {
			t.Fatalf("trial %d (%s): Matrix.Solve diverged from SolveInto", trial, kind)
		}
	}
	// The sweep must actually have exercised every outcome class.
	for _, class := range []string{"unique", "inconsistent", "underdetermined"} {
		if counts[class] == 0 {
			t.Errorf("no %s systems generated — property sweep lost coverage", class)
		}
	}
}

// TestSolveConsistentMatchesSolveOnConsistentSystems pins the early-stop
// path: on systems built from a planted solution (always consistent, the
// bit-true decoders' regime) SolveConsistentInto must agree exactly with
// SolveInto, including the error class when underdetermined.
func TestSolveConsistentMatchesSolveOnConsistentSystems(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var s, sc Solver
	for trial := 0; trial < 300; trial++ {
		rows := 1 + r.Intn(120)
		cols := 1 + r.Intn(120)
		m := RandomMatrix(rows, cols, r)
		x := RandomVector(cols, r)
		b, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		rv, _ := matrixRows(m)
		bits := make([]int, rows)
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		got := NewVector(cols)
		gotC := NewVector(cols)
		errFull := s.SolveInto(&got, cols, rv, bits)
		errCons := sc.SolveConsistentInto(&gotC, cols, rv, bits)
		if (errFull == nil) != (errCons == nil) {
			t.Fatalf("trial %d: SolveInto err %v vs SolveConsistentInto err %v", trial, errFull, errCons)
		}
		if errFull == nil {
			if !got.Equal(gotC) || !got.Equal(x) {
				t.Fatalf("trial %d: solutions diverge", trial)
			}
		} else if !errors.Is(errCons, ErrUnderdetermined) {
			t.Fatalf("trial %d: err %v, want ErrUnderdetermined", trial, errCons)
		}
	}
}

// TestSolverRankMatchesReference cross-checks the solver-backed Rank against
// a rank derived from the reference elimination.
func TestSolverRankMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var s Solver
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.Intn(80), 1+r.Intn(80)
		m := RandomMatrix(rows, cols, r)
		// Reference rank: solve m·x = 0 and infer from the error class only
		// when square; instead count pivots directly with the naive sweep.
		want := refRank(m)
		if got := s.Rank(m); got != want {
			t.Fatalf("trial %d: Rank = %d, want %d", trial, got, want)
		}
		if got := m.Rank(); got != want {
			t.Fatalf("trial %d: Matrix.Rank = %d, want %d", trial, got, want)
		}
	}
}

// refRank is the bit-level rank companion of refSolve.
func refRank(m Matrix) int {
	work := m.Clone()
	rank := 0
	for col := 0; col < work.Cols() && rank < work.Rows(); col++ {
		sel := -1
		for i := rank; i < work.Rows(); i++ {
			if work.At(i, col) == 1 {
				sel = i
				break
			}
		}
		if sel == -1 {
			continue
		}
		for j := 0; j < work.Cols(); j++ {
			bi, bs := work.At(rank, j), work.At(sel, j)
			work.Set(rank, j, bs)
			work.Set(sel, j, bi)
		}
		for i := 0; i < work.Rows(); i++ {
			if i != rank && work.At(i, col) == 1 {
				for j := 0; j < work.Cols(); j++ {
					work.Set(i, j, work.At(i, j)^work.At(rank, j))
				}
			}
		}
		rank++
	}
	return rank
}

// TestSolverReuseAcrossShapes checks that one Solver instance can be reused
// across systems of different shapes back to back (the worker pattern).
func TestSolverReuseAcrossShapes(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var s Solver
	for trial := 0; trial < 100; trial++ {
		cols := 1 + r.Intn(100)
		rows := cols + r.Intn(40)
		var m Matrix
		for {
			m = RandomMatrix(rows, cols, r)
			if m.Rank() == cols {
				break
			}
		}
		x := RandomVector(cols, r)
		b, _ := m.MulVec(x)
		got := NewVector(cols)
		rv, _ := matrixRows(m)
		bits := make([]int, rows)
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		if err := s.SolveInto(&got, cols, rv, bits); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(x) {
			t.Fatalf("trial %d: wrong solution after shape change", trial)
		}
	}
}

// TestSolverShapeErrors covers the argument validation of the new entry
// points.
func TestSolverShapeErrors(t *testing.T) {
	var s Solver
	dst := NewVector(3)
	rows := []Vector{NewVector(3)}
	if err := s.SolveInto(&dst, 3, rows, nil); !errors.Is(err, ErrShape) {
		t.Errorf("rows/bits mismatch: err = %v, want ErrShape", err)
	}
	bad := NewVector(2)
	if err := s.SolveInto(&bad, 3, rows, []int{0}); !errors.Is(err, ErrShape) {
		t.Errorf("short dst: err = %v, want ErrShape", err)
	}
	if err := s.SolveInto(&dst, 3, []Vector{NewVector(4)}, []int{0}); !errors.Is(err, ErrShape) {
		t.Errorf("wrong row width: err = %v, want ErrShape", err)
	}
	m := NewMatrix(2, 3)
	if err := s.SolveMatrixInto(&dst, m, NewVector(1)); !errors.Is(err, ErrShape) {
		t.Errorf("rhs mismatch: err = %v, want ErrShape", err)
	}
	if err := s.SolveMatrixInto(&bad, m, NewVector(2)); !errors.Is(err, ErrShape) {
		t.Errorf("dst mismatch: err = %v, want ErrShape", err)
	}
}

// TestSolveConsistentShortSystem pins the short-system exit: with fewer
// equations than unknowns SolveConsistentInto reports ErrUnderdetermined
// without eliminating — so it leaves dst untouched, allocates nothing and
// never sizes a tableau, even on a Solver that never reserved scratch — on
// every elimination path and on both sides of the dense cutover.
func TestSolveConsistentShortSystem(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, k := range []int{90, m4riMinCols + 233} {
		m := RandomMatrix(k-1, k, r)
		x := RandomVector(k, r)
		b, _ := m.MulVec(x)
		rv, _ := matrixRows(m)
		bits := make([]int, m.Rows())
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		for _, force := range []int{forceAuto, forceIncremental, forceDense} {
			s := forceSolver(force)
			dst := RandomVector(k, r)
			before := dst.Clone()
			if n := testing.AllocsPerRun(20, func() {
				if err := s.SolveConsistentInto(&dst, k, rv, bits); err != ErrUnderdetermined {
					t.Fatalf("k=%d force=%d: err %v, want ErrUnderdetermined", k, force, err)
				}
			}); n != 0 {
				t.Errorf("k=%d force=%d: short consistent solve allocates %.1f/op, want 0", k, force, n)
			}
			if !dst.Equal(before) {
				t.Errorf("k=%d force=%d: short consistent solve wrote dst", k, force)
			}
			if s.tab != nil || s.dense != nil {
				t.Errorf("k=%d force=%d: short consistent solve grew an elimination tableau", k, force)
			}
		}
	}
}

// TestSolveShortSystemErrorPrecedence pins what the short-system exit must
// not change: shape validation comes first in consistent mode, and
// SolveInto still eliminates a short system, so an inconsistent one reports
// ErrInconsistent rather than ErrUnderdetermined.
func TestSolveShortSystemErrorPrecedence(t *testing.T) {
	for _, k := range []int{5, m4riMinCols + 7} {
		dst := NewVector(k)
		if err := new(Solver).SolveConsistentInto(&dst, k, []Vector{NewVector(k + 1)}, []int{0}); !errors.Is(err, ErrShape) {
			t.Errorf("k=%d wrong row width: err %v, want ErrShape", k, err)
		}
		if err := new(Solver).SolveConsistentInto(&dst, k, []Vector{NewVector(k)}, nil); !errors.Is(err, ErrShape) {
			t.Errorf("k=%d rows/bits mismatch: err %v, want ErrShape", k, err)
		}
		bad := NewVector(k - 1)
		if err := new(Solver).SolveConsistentInto(&bad, k, []Vector{NewVector(k)}, []int{0}); !errors.Is(err, ErrShape) {
			t.Errorf("k=%d short dst: err %v, want ErrShape", k, err)
		}

		// Two copies of one equation with opposite right-hand sides.
		row := NewVector(k)
		row.Set(0, 1)
		row.Set(k-1, 1)
		rows, bits := []Vector{row, row}, []int{0, 1}
		for _, force := range []int{forceAuto, forceIncremental, forceDense} {
			if err := forceSolver(force).SolveInto(&dst, k, rows, bits); !errors.Is(err, ErrInconsistent) {
				t.Errorf("k=%d force=%d: short inconsistent SolveInto err %v, want ErrInconsistent", k, force, err)
			}
		}
	}
}

// TestSolverZeroAllocSteadyState pins the allocation contract: after
// Reserve (or one warm solve), repeated solves of the same shape allocate
// nothing — including failing ones, whose sentinel errors are unwrapped.
func TestSolverZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	const rows, cols = 120, 90
	m := RandomMatrix(rows, cols, r)
	x := RandomVector(cols, r)
	b, _ := m.MulVec(x)
	rv, _ := matrixRows(m)
	bits := make([]int, rows)
	for i := range bits {
		bits[i] = b.Bit(i)
	}
	short := rv[:cols-5] // underdetermined variant
	shortBits := bits[:cols-5]

	var s Solver
	s.Reserve(rows, cols)
	dst := NewVector(cols)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.SolveInto(&dst, cols, rv, bits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("successful solve allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.SolveInto(&dst, cols, short, shortBits); !errors.Is(err, ErrUnderdetermined) {
			t.Fatalf("err = %v", err)
		}
	}); n != 0 {
		t.Errorf("failing solve allocates %.1f/op, want 0", n)
	}
}

// TestRerandomizeMatchesRandomMatrix pins the in-place redraw to the
// allocating constructor: from identical RNG states both must produce
// identical matrices (same draw order, one Uint64 per word), which is part
// of the bit-true simulators' canonical-stream contract (results a pure
// function of Seed/Trials/Workers).
func TestRerandomizeMatchesRandomMatrix(t *testing.T) {
	for _, dims := range [][2]int{{7, 5}, {64, 64}, {100, 130}, {3, 200}, {0, 10}} {
		r1 := rand.New(rand.NewSource(42))
		r2 := rand.New(rand.NewSource(42))
		want := RandomMatrix(dims[0], dims[1], r1)
		got := NewMatrix(dims[0], dims[1])
		got.Rerandomize(r2)
		for i := 0; i < dims[0]; i++ {
			if !got.RowView(i).Equal(want.RowView(i)) {
				t.Fatalf("dims %v: row %d differs", dims, i)
			}
		}
		// Tail masking: no stray bits beyond the logical width.
		for i := 0; i < dims[0]; i++ {
			if got.RowView(i).Weight() != want.RowView(i).Weight() {
				t.Fatalf("dims %v: weight mismatch row %d", dims, i)
			}
		}
	}
}

// TestVectorWordOps pins the word-level vector primitives against naive
// bit-by-bit equivalents.
func TestVectorWordOps(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+r.Intn(200), 1+r.Intn(200)
		a, b := RandomVector(na, r), RandomVector(nb, r)

		// Dot: inner product over the overlapping prefix.
		want := 0
		for i := 0; i < na && i < nb; i++ {
			want ^= a.Bit(i) & b.Bit(i)
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("Dot(%d,%d) = %d, want %d", na, nb, got, want)
		}

		// CopyPrefix: first dst.Len() bits of src, zero-padded.
		dst := RandomVector(na, r) // pre-fill with junk to catch stale words
		dst.CopyPrefix(b)
		for i := 0; i < na; i++ {
			want := 0
			if i < nb {
				want = b.Bit(i)
			}
			if dst.Bit(i) != want {
				t.Fatalf("CopyPrefix(%d<-%d): bit %d = %d, want %d", na, nb, i, dst.Bit(i), want)
			}
		}

		// XorWith: zero-extended in-place xor.
		if nb <= na {
			v := a.Clone()
			if err := v.XorWith(b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < na; i++ {
				want := a.Bit(i)
				if i < nb {
					want ^= b.Bit(i)
				}
				if v.Bit(i) != want {
					t.Fatalf("XorWith: bit %d mismatch", i)
				}
			}
		} else {
			v := a.Clone()
			if err := v.XorWith(b); !errors.Is(err, ErrShape) {
				t.Fatalf("XorWith longer vector: err = %v, want ErrShape", err)
			}
		}
	}
}

// TestMulVecIntoMatchesMulVec pins the in-place encode against the
// allocating one.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+r.Intn(150), 1+r.Intn(150)
		m := RandomMatrix(rows, cols, r)
		x := RandomVector(cols, r)
		want, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		got := RandomVector(rows, r) // junk pre-fill
		if err := m.MulVecInto(&got, x); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: MulVecInto mismatch", trial)
		}
	}
	m := NewMatrix(3, 2)
	out := NewVector(2)
	if err := m.MulVecInto(&out, NewVector(2)); !errors.Is(err, ErrShape) {
		t.Errorf("short dst: err = %v, want ErrShape", err)
	}
}
