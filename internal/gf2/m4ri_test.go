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
	if got, want := cap(s.buf), (cols+m4riSlack)*stride; got != want {
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
// against the clone-based oracle at widths just past the cutover, at the
// edges of a 16-column pass (264 and 271 columns: a final stripe of 8 and
// of 15 columns) and at a waterfall-like width (257, 263, 300 and 519
// columns: every final stripe is partial), each a few rows taller than
// wide, so every pass uses four 4-bit tables. The 264- and 271-column
// systems also run with m4riWideRows+200 rows, so SolveInto's first
// passes use two 8-bit tables and its later ones four 4-bit tables. Each
// shape gets a full-rank system, one with all-zero columns (free columns
// in both halves of a stripe, the last column included), one whose stripe
// has dependent columns between pivot columns (a hole in the pivot mask
// of each half), and one with dependent rows (rows run out before the
// columns do); each with a planted and with a random right-hand side.
// SolveInto must match the oracle exactly under every force mode, and
// SolveConsistentInto must on the planted systems.
func TestDenseStripeEdgesMatchReference(t *testing.T) {
	shapes := []struct{ cols, rows int }{{257, 0}, {263, 0}, {264, 0}, {271, 0}, {300, 0}, {519, 0},
		{264, m4riWideRows + 200}, {271, m4riWideRows + 200}}
	for _, sh := range shapes {
		name := fmt.Sprintf("cols%d", sh.cols)
		if sh.rows > 0 {
			name += fmt.Sprintf("-rows%d", sh.rows)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the oracle is slow at 519 columns and on the tall systems
			checkStripeEdges(t, sh.cols, sh.rows, rand.New(rand.NewSource(int64(sh.cols+sh.rows))))
		})
	}
}

// checkStripeEdges runs the stripe-edge systems over cols unknowns with
// about tall rows, or a few more rows than columns when tall is 0.
func checkStripeEdges(t *testing.T, cols, tall int, r *rand.Rand) {
	for _, kind := range []string{"full", "freecols", "stripehole", "deprows"} {
		rows := cols + 1 + r.Intn(8)
		if tall > 0 {
			rows = tall + r.Intn(8)
		}
		m := RandomMatrix(rows, cols, r)
		c0 := m4riStripe * (cols / m4riStripe / 2) // a mid-system stripe
		switch kind {
		case "freecols":
			for i := 0; i < rows; i++ {
				for _, j := range []int{c0 + 1, c0 + 5, c0 + 9, cols - 1} {
					m.Set(i, j, 0)
				}
			}
		case "stripehole":
			for i := 0; i < rows; i++ {
				m.Set(i, c0+3, m.At(i, c0)^m.At(i, c0+2))
				m.Set(i, c0+12, m.At(i, c0+8)^m.At(i, c0+10))
			}
		case "deprows":
			// Every row from cols-20 on sums two rows before it: rank at
			// most cols-20.
			for dst := cols - 20; dst < rows; dst++ {
				sum, _ := m.Row(r.Intn(cols - 20)).Xor(m.Row(r.Intn(cols - 20)))
				copy(m.RowView(dst).words, sum.words)
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

// pairGroups lays out a pair decode of a planted message x as onlyA ++
// shared ++ onlyB: the three groups are row lists of g.
func pairGroups(g Matrix, x Vector, onlyA, shared, onlyB []int) (rows []Vector, bits []int, na, nb int) {
	rhs, _ := g.MulVec(x)
	for _, group := range [][]int{onlyA, shared, onlyB} {
		for _, i := range group {
			rows = append(rows, g.RowView(i))
			bits = append(bits, rhs.Bit(i))
		}
	}
	return rows, bits, len(onlyA), len(onlyB)
}

// randomPairCase draws a pair decode over k unknowns of one of these kinds:
//
//	random      every row of an n-row code lands in onlyA, shared, onlyB
//	            or neither at random weights
//	noshared    the shared group is empty
//	noonlyA     terminal a sees only shared rows (likewise noonlyB)
//	shortA      terminal a has fewer than k rows (likewise shortB)
//	depshared   the first k+m4riSlack shared rows span a rank-k/2 space, so
//	            the loaded shared rows fall short and each side must fall
//	            back to its own equations, which complete the rank
//	depsmall    a few shared rows, mostly dependent; the own rows complete
//	            the rank in the pair tableau itself
//	deficient   both sides load every row they have and stay rank
//	            deficient (a column no row touches)
func randomPairCase(r *rand.Rand, k int, kind string) (rows []Vector, bits []int, na, nb int, x Vector) {
	x = RandomVector(k, r)
	var onlyA, shared, onlyB []int
	switch kind {
	case "depshared":
		basis := RandomMatrix(k/2+1, k, r)
		own := RandomMatrix(2*k, k, r)
		g := NewMatrix(k+m4riSlack+3*k, k)
		for i := 0; i < k+m4riSlack; i++ {
			v := NewVector(k)
			for j := 0; j < basis.Rows(); j++ {
				if r.Intn(2) == 1 {
					_ = v.XorWith(basis.RowView(j))
				}
			}
			copy(g.RowView(i).words, v.words)
			shared = append(shared, i)
		}
		for i := 0; i < 3*k; i++ {
			row := k + m4riSlack + i
			if i < k {
				copy(g.RowView(row).words, own.RowView(i).words)
				onlyA = append(onlyA, row)
			} else if i < 2*k {
				copy(g.RowView(row).words, own.RowView(i).words)
				onlyB = append(onlyB, row)
			}
		}
		rows, bits, na, nb = pairGroups(g, x, onlyA, shared, onlyB)
		return rows, bits, na, nb, x
	case "depsmall":
		g := RandomMatrix(3*k+8, k, r)
		src := g.Row(0)
		for i := 1; i < 8; i++ {
			if i%2 == 1 {
				copy(g.RowView(i).words, src.words) // duplicates among the shared rows
			}
			shared = append(shared, i)
		}
		shared = append(shared, 0)
		for i := 8; i < 8+k; i++ {
			onlyA = append(onlyA, i)
			onlyB = append(onlyB, i+k)
		}
		rows, bits, na, nb = pairGroups(g, x, onlyA, shared, onlyB)
		return rows, bits, na, nb, x
	}
	n := 2*k + r.Intn(k+40)
	g := RandomMatrix(n, k, r)
	if kind == "deficient" {
		for i := 0; i < n; i++ {
			g.Set(i, k/2, 0)
		}
	}
	wA, wS, wB := 0.2, 0.5, 0.2
	switch kind {
	case "noshared":
		wS = 0
		wA, wB = 0.5, 0.5
	case "noonlyA":
		wA = 0
	case "noonlyB":
		wB = 0
	}
	for i := 0; i < n; i++ {
		u := r.Float64() * (wA + wS + wB + 0.1)
		switch {
		case u < wA:
			onlyA = append(onlyA, i)
		case u < wA+wS:
			shared = append(shared, i)
		case u < wA+wS+wB:
			onlyB = append(onlyB, i)
		}
	}
	switch kind {
	case "shortA":
		// Terminal a keeps fewer than k rows in all.
		keep := max(k-1-len(shared), 0)
		onlyA = onlyA[:min(keep, len(onlyA))]
		shared = shared[:min(len(shared), k-1-len(onlyA))]
	case "shortB":
		keep := max(k-1-len(shared), 0)
		onlyB = onlyB[:min(keep, len(onlyB))]
		shared = shared[:min(len(shared), k-1-len(onlyB))]
	case "deficient":
		// Every row loaded: each side holds at most k+m4riSlack rows.
		shared = shared[:min(len(shared), k)]
		onlyA = onlyA[:min(len(onlyA), m4riSlack)]
		onlyB = onlyB[:min(len(onlyB), m4riSlack)]
	}
	rows, bits, na, nb = pairGroups(g, x, onlyA, shared, onlyB)
	return rows, bits, na, nb, x
}

// TestSolvePairMatchesSeparate pins SolvePairConsistentInto against two
// independent SolveConsistentInto calls on each side's own equations, at
// random k on both sides of the dense cutover and under every force mode:
// the same error, the same solution when solved, and dst untouched when
// not.
func TestSolvePairMatchesSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	kinds := []string{"random", "noshared", "noonlyA", "noonlyB", "shortA", "shortB", "depshared", "depsmall", "deficient"}
	outcomes := map[string]int{}
	for trial := 0; trial < 3*len(kinds)*4; trial++ {
		kind := kinds[trial%len(kinds)]
		k := 1 + r.Intn(m4riMinCols-1)
		if trial/len(kinds)%2 == 1 {
			k = m4riMinCols + r.Intn(300)
		}
		rows, bits, na, nb, x := randomPairCase(r, k, kind)
		end := len(rows) - nb
		for _, force := range []int{forceAuto, forceIncremental, forceDense} {
			ref := forceSolver(force)
			wantA, wantB := RandomVector(k, r), RandomVector(k, r)
			gotA, gotB := wantA.Clone(), wantB.Clone()
			wantErrA := ref.SolveConsistentInto(&wantA, k, rows[:end], bits[:end])
			wantErrB := ref.SolveConsistentInto(&wantB, k, rows[na:], bits[na:])
			s := forceSolver(force)
			errA, errB := s.SolvePairConsistentInto(&gotA, &gotB, k, rows, bits, na, nb)
			for _, side := range []struct {
				name         string
				err, wantErr error
				got, want    Vector
			}{{"A", errA, wantErrA, gotA, wantA}, {"B", errB, wantErrB, gotB, wantB}} {
				if side.err != side.wantErr || !side.got.Equal(side.want) {
					t.Fatalf("trial %d (%s, k=%d, groups %d/%d/%d, force=%d) side %s: pair (%v) disagrees with a separate solve (%v)",
						trial, kind, k, na, len(rows)-na-nb, nb, force, side.name, side.err, side.wantErr)
				}
				if side.err == nil {
					outcomes["solved"]++
					if !side.got.Equal(x) {
						t.Fatalf("trial %d (%s) side %s: solution is not the planted one", trial, kind, side.name)
					}
				} else {
					outcomes["underdetermined"]++
				}
			}
		}
	}
	for _, o := range []string{"solved", "underdetermined"} {
		if outcomes[o] == 0 {
			t.Errorf("no %s side generated — pair property sweep lost coverage", o)
		}
	}
}

// TestSolvePairZeroAllocSteadyState extends the allocation contract to pair
// decodes: after ReservePair for the total row count, repeated pair decodes
// allocate nothing. The shapes are the n=1200 MABC broadcast (k=445 from a
// 582-row code) and a pair with no shared rows, whose tableau holds the
// full k+m4riSlack rows of both sides.
func TestSolvePairZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const k = 445
	rows, bits, na, nb, x := pairSystem(r, 582, k, 0.85, 0.9)
	g := RandomMatrix(2*(k+m4riSlack), k, r)
	var onlyA, onlyB []int
	for i := 0; i < k+m4riSlack; i++ {
		onlyA = append(onlyA, i)
		onlyB = append(onlyB, k+m4riSlack+i)
	}
	rows2, bits2, na2, nb2 := pairGroups(g, x, onlyA, nil, onlyB)
	for _, c := range []struct {
		name   string
		rows   []Vector
		bits   []int
		na, nb int
	}{{"waterfall", rows, bits, na, nb}, {"noshared", rows2, bits2, na2, nb2}} {
		var s Solver
		s.ReservePair(len(c.rows), k)
		dstA, dstB := NewVector(k), NewVector(k)
		if n := testing.AllocsPerRun(10, func() {
			if errA, errB := s.SolvePairConsistentInto(&dstA, &dstB, k, c.rows, c.bits, c.na, c.nb); errA != nil || errB != nil {
				t.Fatalf("%s: errors %v, %v", c.name, errA, errB)
			}
		}); n != 0 {
			t.Errorf("%s: pair decode allocates %.1f/op, want 0", c.name, n)
		}
		if !dstA.Equal(x) || !dstB.Equal(x) {
			t.Fatalf("%s: pair decode is not the planted solution", c.name)
		}
	}
}

// TestSolvePairShapeErrors pins the pair decode's shape handling: group
// sizes that do not fit the rows fail both sides with ErrShape, and a
// malformed side fails as its own SolveConsistentInto would.
func TestSolvePairShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rows, bits, na, nb, _ := pairSystem(r, 400, 300, 0.85, 0.9)
	var s Solver
	dstA, dstB := NewVector(300), NewVector(300)
	for _, g := range [][2]int{{-1, 0}, {0, -1}, {len(rows), 1}} {
		errA, errB := s.SolvePairConsistentInto(&dstA, &dstB, 300, rows, bits, g[0], g[1])
		if !errors.Is(errA, ErrShape) || !errors.Is(errB, ErrShape) {
			t.Errorf("groups %v: errors %v, %v, want ErrShape for both", g, errA, errB)
		}
	}
	if errA, errB := s.SolvePairConsistentInto(&dstA, &dstB, 300, rows, bits[1:], na, nb); !errors.Is(errA, ErrShape) || !errors.Is(errB, ErrShape) {
		t.Errorf("rows/bits mismatch: errors %v, %v, want ErrShape for both", errA, errB)
	}
	short := NewVector(299)
	errA, errB := s.SolvePairConsistentInto(&dstA, &short, 300, rows, bits, na, nb)
	if errA != nil || !errors.Is(errB, ErrShape) {
		t.Errorf("short dstB: errors %v, %v, want nil and ErrShape", errA, errB)
	}
}
