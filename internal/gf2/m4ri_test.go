package gf2

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// forceSolver returns a Solver pinned to the given elimination path; the
// force knob exists exactly so these tests and the solver benchmarks can
// exercise the dense path below the automatic cutover.
func forceSolver(mode int) *Solver {
	return &Solver{force: mode}
}

// TestDenseSolveMatchesReference is the dense twin of
// TestSolverMatchesReference: across the same randomized square, tall, wide,
// rank-deficient, consistent and inconsistent systems, the forced-dense
// eliminator must return exactly the reference solver's solution bit for bit
// or exactly its error class.
func TestDenseSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	s := forceSolver(forceDense)
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
				t.Fatalf("trial %d (%s): dense SolveInto err %v, reference solved", trial, kind, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s): dense solution mismatch", trial, kind)
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
	}
	for _, class := range []string{"unique", "inconsistent", "underdetermined"} {
		if counts[class] == 0 {
			t.Errorf("no %s systems generated — dense property sweep lost coverage", class)
		}
	}
}

// TestDenseSolveWideColumns stresses systems whose stripe count exceeds one
// word (cols > 64) and odd widths straddling word boundaries, where the
// stripe index extraction crosses words.
func TestDenseSolveWideColumns(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	s := forceSolver(forceDense)
	ref := forceSolver(forceIncremental)
	for _, cols := range []int{63, 64, 65, 100, 127, 128, 129, 200, 300} {
		for rep := 0; rep < 5; rep++ {
			rows := cols + r.Intn(40)
			m := RandomMatrix(rows, cols, r)
			x := RandomVector(cols, r)
			b, _ := m.MulVec(x)
			rv, _ := matrixRows(m)
			bits := make([]int, rows)
			for i := range bits {
				bits[i] = b.Bit(i)
			}
			got := NewVector(cols)
			gotRef := NewVector(cols)
			errD := s.SolveInto(&got, cols, rv, bits)
			errI := ref.SolveInto(&gotRef, cols, rv, bits)
			if (errD == nil) != (errI == nil) {
				t.Fatalf("cols=%d: dense err %v vs incremental err %v", cols, errD, errI)
			}
			if errD == nil && !got.Equal(gotRef) {
				t.Fatalf("cols=%d: dense and incremental solutions differ", cols)
			}
		}
	}
}

// TestDenseConsistentMatchesIncremental pins SolveConsistentInto across the
// two paths on planted-solution systems, the bit-true decoders' regime.
func TestDenseConsistentMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	s := forceSolver(forceDense)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(150)
		rows := cols + r.Intn(150)
		m := RandomMatrix(rows, cols, r)
		x := RandomVector(cols, r)
		b, _ := m.MulVec(x)
		rv, _ := matrixRows(m)
		bits := make([]int, rows)
		for i := range bits {
			bits[i] = b.Bit(i)
		}
		got := NewVector(cols)
		err := s.SolveConsistentInto(&got, cols, rv, bits)
		if err != nil {
			if !errors.Is(err, ErrUnderdetermined) {
				t.Fatalf("trial %d: err %v, want nil or ErrUnderdetermined", trial, err)
			}
			if refRank(m) == cols {
				t.Fatalf("trial %d: dense consistent solve failed on a full-rank system", trial)
			}
			continue
		}
		if !got.Equal(x) {
			t.Fatalf("trial %d: dense consistent solution is not the planted one", trial)
		}
	}
}

// TestDenseConsistentFallback forces the rank-deficient-prefix escape hatch:
// the first cols+m4riSlack equations are copies of one row, so the dense
// prefix cannot reach full rank and the solver must fall back to the
// incremental path over the complete set — which does solve it.
func TestDenseConsistentFallback(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const cols = 32
	x := RandomVector(cols, r)
	dup := RandomVector(cols, r)
	dupBit := Dot(dup, x)

	var full Matrix
	for {
		full = RandomMatrix(cols, cols, r)
		if full.Rank() == cols {
			break
		}
	}
	nDup := cols + m4riSlack
	rows := make([]Vector, 0, nDup+cols)
	bits := make([]int, 0, nDup+cols)
	for i := 0; i < nDup; i++ {
		rows = append(rows, dup)
		bits = append(bits, dupBit)
	}
	for i := 0; i < cols; i++ {
		rows = append(rows, full.RowView(i))
		bits = append(bits, Dot(full.RowView(i), x))
	}

	s := forceSolver(forceDense)
	got := NewVector(cols)
	if err := s.SolveConsistentInto(&got, cols, rows, bits); err != nil {
		t.Fatalf("SolveConsistentInto: %v", err)
	}
	if !got.Equal(x) {
		t.Fatalf("fallback solution is not the planted one")
	}
}

// TestDenseAutoCutover pins the size cutover itself: only systems with at
// least m4riMinCols unknowns and at least as many equations go dense.
func TestDenseAutoCutover(t *testing.T) {
	var s Solver
	cases := []struct {
		nrows, cols int
		want        bool
	}{
		{m4riMinCols, m4riMinCols, true},
		{m4riMinCols + 100, m4riMinCols, true},
		{m4riMinCols - 1, m4riMinCols, false}, // underdetermined: stay incremental
		{m4riMinCols, m4riMinCols - 1, false}, // short block: stay incremental
		{64, 64, false},
		{4096, 4096, true},
	}
	for _, c := range cases {
		if got := s.useDense(c.nrows, c.cols); got != c.want {
			t.Errorf("useDense(%d, %d) = %v, want %v", c.nrows, c.cols, got, c.want)
		}
	}
	s.force = forceIncremental
	if s.useDense(4096, 4096) {
		t.Error("forceIncremental did not pin the incremental path")
	}
	s.force = forceDense
	if !s.useDense(4, 4) {
		t.Error("forceDense did not pin the dense path")
	}
}

// TestDenseZeroAllocSteadyState extends the allocation contract across the
// cutover: after Reserve for a dense-path shape, repeated solves — the auto
// path at real simulator shapes — allocate nothing. 445 unknowns from 504
// equations is an n=1200 MABC decode, the widest n=1200 shape, and 600
// from 664 a wider one. Both are taller than the cols+m4riSlack rows
// Reserve caps the dense tableau at.
func TestDenseZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, shape := range []struct{ rows, cols int }{{504, 445}, {664, 600}} {
		rows, cols := shape.rows, shape.cols
		m := RandomMatrix(rows, cols, r)
		x := RandomVector(cols, r)
		b, _ := m.MulVec(x)
		rv, _ := matrixRows(m)
		bits := make([]int, rows)
		for i := range bits {
			bits[i] = b.Bit(i)
		}

		var s Solver
		s.Reserve(rows, cols)
		dst := NewVector(cols)
		if n := testing.AllocsPerRun(20, func() {
			if err := s.SolveInto(&dst, cols, rv, bits); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%dx%d: dense solve allocates %.1f/op, want 0", rows, cols, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := s.SolveConsistentInto(&dst, cols, rv, bits); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%dx%d: dense consistent solve allocates %.1f/op, want 0", rows, cols, n)
		}
		if !dst.Equal(x) {
			t.Fatalf("%dx%d: dense steady-state solution is not the planted one", rows, cols)
		}
	}
}

// TestReserveCapsConsistentDenseRows pins Reserve's dense sizing: a tall
// shape reserves only the cols+m4riSlack rows a consistent solve loads, so
// consistent solves of it allocate nothing, while a SolveInto of the same
// shape, which loads every row, grows the scratch once and is then
// allocation-free too.
func TestReserveCapsConsistentDenseRows(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	const cols = 300
	const rows = cols + 3*m4riSlack
	m := RandomMatrix(rows, cols, r)
	x := RandomVector(cols, r)
	b, _ := m.MulVec(x)
	rv, _ := matrixRows(m)
	bits := make([]int, rows)
	for i := range bits {
		bits[i] = b.Bit(i)
	}
	var s Solver
	s.Reserve(rows, cols)
	stride := wordsFor(cols) + 1
	if got, want := cap(s.dense), (cols+m4riSlack)*stride; got != want {
		t.Fatalf("Reserve(%d, %d): dense capacity %d words, want %d", rows, cols, got, want)
	}
	dst := NewVector(cols)
	if n := testing.AllocsPerRun(10, func() {
		if err := s.SolveConsistentInto(&dst, cols, rv, bits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("consistent solve allocates %.1f/op, want 0", n)
	}
	if err := s.SolveInto(&dst, cols, rv, bits); err != nil || !dst.Equal(x) {
		t.Fatalf("tall SolveInto: err %v or wrong solution", err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := s.SolveInto(&dst, cols, rv, bits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("tall SolveInto allocates %.1f/op after its first solve, want 0", n)
	}
}

// TestDenseStripeEdgesMatchReference pins the direct-indexed stripe tables
// against the clone-based oracle at widths just past the cutover and at a
// waterfall-like width (257, 263, 300 and 519 columns: every final stripe
// is partial). Each width gets a full-rank system, one with all-zero
// columns (free columns, the last one included), one whose stripe has a
// dependent column between pivot columns (a hole in the pivot mask), and
// one with dependent rows (rows run out before the columns do); each with
// a planted and with a random right-hand side. SolveInto must match the
// oracle exactly under every force mode, and SolveConsistentInto must on
// the planted systems.
func TestDenseStripeEdgesMatchReference(t *testing.T) {
	for _, cols := range []int{257, 263, 300, 519} {
		t.Run(fmt.Sprintf("cols%d", cols), func(t *testing.T) {
			t.Parallel() // the oracle is slow at 519 columns
			checkStripeEdges(t, cols, rand.New(rand.NewSource(int64(cols))))
		})
	}
}

func checkStripeEdges(t *testing.T, cols int, r *rand.Rand) {
	for _, kind := range []string{"full", "freecols", "stripehole", "deprows"} {
		rows := cols + 1 + r.Intn(8)
		m := RandomMatrix(rows, cols, r)
		c0 := m4riStripe * (cols / m4riStripe / 2) // a mid-system stripe
		switch kind {
		case "freecols":
			for i := 0; i < rows; i++ {
				for _, j := range []int{c0 + 1, c0 + 5, cols - 1} {
					m.Set(i, j, 0)
				}
			}
		case "stripehole":
			for i := 0; i < rows; i++ {
				m.Set(i, c0+3, m.At(i, c0)^m.At(i, c0+2))
			}
		case "deprows":
			for i := 0; i < rows/10+20; i++ {
				sum, _ := m.Row(r.Intn(rows)).Xor(m.Row(r.Intn(rows)))
				dst := r.Intn(rows)
				for j := 0; j < cols; j++ {
					m.Set(dst, j, sum.Bit(j))
				}
			}
		}
		rv, _ := matrixRows(m)
		x := RandomVector(cols, r)
		planted, _ := m.MulVec(x)
		rhss := []Vector{planted}
		if kind == "full" || kind == "stripehole" {
			rhss = append(rhss, RandomVector(rows, r)) // almost surely inconsistent
		}
		for _, b := range rhss {
			consistent := b.Equal(planted)
			want, wantErr := refSolve(m, b)
			if kind != "full" && wantErr == nil {
				t.Fatalf("%s: the oracle solved a rank-deficient system", kind)
			}
			bits := make([]int, rows)
			for i := range bits {
				bits[i] = b.Bit(i)
			}
			for _, force := range []int{forceAuto, forceIncremental, forceDense} {
				s := forceSolver(force)
				got := NewVector(cols)
				err := s.SolveInto(&got, cols, rv, bits)
				if !sameOutcome(err, wantErr, got, want) {
					t.Fatalf("%s consistent=%v force=%d: SolveInto (%v) disagrees with the oracle (%v)",
						kind, consistent, force, err, wantErr)
				}
				if !consistent {
					continue
				}
				err = s.SolveConsistentInto(&got, cols, rv, bits)
				if !sameOutcome(err, wantErr, got, want) {
					t.Fatalf("%s force=%d: SolveConsistentInto (%v) disagrees with the oracle (%v)",
						kind, force, err, wantErr)
				}
			}
		}
	}
}

// sameOutcome reports whether a solve matched the oracle: the same error
// class, or both solved with the same solution.
func sameOutcome(err, wantErr error, got, want Vector) bool {
	switch {
	case wantErr == nil:
		return err == nil && got.Equal(want)
	case errors.Is(wantErr, ErrInconsistent):
		return errors.Is(err, ErrInconsistent)
	default:
		return errors.Is(err, ErrUnderdetermined)
	}
}
