package gf2

import (
	"fmt"
	"math/bits"
)

// Solver performs Gaussian elimination over GF(2) in a persistent scratch
// tableau, so repeated solves (the bit-true simulators decode up to four
// linear systems per block) reuse one allocation.
//
// The algorithm is an incremental word-level basis reduction: equations are
// consumed one at a time, each reduced against the pivot rows collected so
// far. A pivot row is stored with its leading column as pivot, so it has no
// set bit before that column and every XOR into a candidate row starts at
// the pivot's word. Leading columns are found with bits.TrailingZeros64 on
// the candidate's words (whose lower bits are zero by construction, so no
// per-bit scan is ever needed). Each tableau row carries the equation's RHS
// bit in one trailing word, riding along through every row operation. The
// basis can hold at most cols pivots, so the tableau is (cols+1) rows
// regardless of how many equations are fed in — dependent equations reduce
// to zero in the spare slot and are discarded (after their RHS bit is
// checked for consistency).
//
// Wide systems (at least m4riMinCols unknowns, at least as many equations)
// are eliminated by the dense multi-column path in m4ri.go instead — same
// results, fewer row XORs; the incremental basis remains the path for
// narrow systems and for short systems in SolveInto. A short system in
// SolveConsistentInto (fewer equations than unknowns) is not eliminated at
// all: its outcome is known from the row count alone. On the bit-true
// waterfall those are the relay decodes above the bound, e.g. k=1813
// unknowns from ≈1650 equations, where a full elimination cost ≈23ms only
// to report ErrUnderdetermined.
//
// SolvePairConsistentInto decodes two systems that share most of their
// equations, as two receivers of one broadcast do, eliminating the shared
// equations once.
//
// The incremental basis and the dense tableau never hold live state at
// the same time, so they share one scratch buffer.
//
// The zero value is ready to use. A Solver is NOT safe for concurrent use;
// give each goroutine its own (the simulator's worker pool does).
type Solver struct {
	// buf is the tableau, row-major: the incremental basis (pivot rows
	// plus one spare slot) or the dense tableau (every loaded equation).
	buf    []uint64
	colRow []int32 // pivot column -> buf row index, or -1
	cols   int
	stride int // words per tableau row, including the trailing RHS word

	table []uint64 // m4ri combination tables: m4riTableRows rows

	// force pins the elimination path for tests and benchmarks:
	// forceAuto (zero value) applies the size cutover.
	force int
}

// Elimination-path overrides for Solver.force.
const (
	forceAuto = iota
	forceIncremental
	forceDense
)

// Reserve grows the scratch so a subsequent rows-by-cols solve performs no
// allocation. Calling it for each system shape a worker will see makes the
// steady state strictly allocation-free (the AllocsPerRun gates in
// internal/sim rely on this).
//
// The dense tableau is sized for what SolveConsistentInto loads: at most
// cols+m4riSlack equations, however many rows the shape has. A SolveInto
// of a taller dense system loads every equation and grows the scratch
// once, on its first solve, as an unreserved shape does.
func (s *Solver) Reserve(rows, cols int) {
	s.reserve(rows, cols, cols+m4riSlack)
}

// ReservePair is Reserve for SolvePairConsistentInto calls whose row
// groups hold at most rows equations together: a pair tableau loads up to
// cols+m4riSlack equations per side. It covers Reserve(rows, cols) too.
func (s *Solver) ReservePair(rows, cols int) {
	s.reserve(rows, cols, 2*(cols+m4riSlack))
}

// reserve grows the shared tableau for the larger of the incremental
// basis and a dense tableau of at most denseRows loaded equations.
//
//bicoop:allow noalloc — scratch grower: allocates here so solves never do
func (s *Solver) reserve(rows, cols, denseRows int) {
	stride := wordsFor(cols) + 1
	need := (min(rows, cols) + 1) * stride
	if cols >= m4riMinCols && rows >= cols {
		need = max(need, min(rows, denseRows)*stride)
		if cap(s.table) < m4riTableRows*stride {
			s.table = make([]uint64, 0, m4riTableRows*stride)
		}
	}
	if cap(s.buf) < need {
		s.buf = make([]uint64, 0, need)
	}
	if cap(s.colRow) < cols {
		s.colRow = make([]int32, 0, cols)
	}
}

// begin sizes the tableau for a system with nrows equations over cols
// unknowns and clears the pivot index.
//
//bicoop:allow noalloc — scratch grower: allocates only on first use per shape
func (s *Solver) begin(nrows, cols int) {
	s.cols = cols
	s.stride = wordsFor(cols) + 1
	basis := nrows
	if cols < basis {
		basis = cols
	}
	need := (basis + 1) * s.stride
	if cap(s.buf) < need {
		s.buf = make([]uint64, need)
	} else {
		s.buf = s.buf[:need]
	}
	if cap(s.colRow) < cols {
		s.colRow = make([]int32, cols)
	} else {
		s.colRow = s.colRow[:cols]
	}
	for i := range s.colRow {
		s.colRow[i] = -1
	}
}

// loadSpare copies one equation (row words + RHS bit) into the spare slot
// after the current basis and returns the slot's words.
//
//bicoop:noalloc
func (s *Solver) loadSpare(rank int, words []uint64, rhs uint64) []uint64 {
	t := s.buf[rank*s.stride : (rank+1)*s.stride]
	wpr := s.stride - 1
	copy(t[:wpr], words)
	for w := len(words); w < wpr; w++ {
		t[w] = 0
	}
	t[wpr] = rhs
	return t
}

// reduce eliminates the spare row against the basis. It returns the row's
// leading column if the row is independent (the caller then promotes the
// spare slot to a pivot row), or -1 if the row reduced to zero; zero reports
// whether the surviving RHS bit is zero (consistency of a dependent row).
//
//bicoop:noalloc
func (s *Solver) reduce(cur []uint64) (lead int, zero bool) {
	wpr := s.stride - 1
	for w := 0; w < wpr; {
		if cur[w] == 0 {
			w++
			continue
		}
		c := w<<6 + bits.TrailingZeros64(cur[w])
		j := s.colRow[c]
		if j < 0 {
			return c, true
		}
		// XOR the pivot row in; its leading column is c, so words before w
		// cannot change, and bit c clears. Bits below c in word w are zero
		// by the reduction invariant, so the scan never moves backward.
		piv := s.buf[int(j)*s.stride : (int(j)+1)*s.stride]
		for i := w; i < s.stride; i++ {
			cur[i] ^= piv[i]
		}
	}
	return -1, cur[wpr]&1 == 0
}

// finishSolve turns the outcome of an elimination into the old Solve
// semantics (inconsistency takes precedence over underdetermination) and
// extracts the solution from the tableau — the incremental basis or the
// dense one — when it is unique.
//
//bicoop:noalloc
func (s *Solver) finishSolve(dst *Vector, rank int, inconsistent bool) error {
	if inconsistent {
		return ErrInconsistent
	}
	if rank < s.cols {
		return ErrUnderdetermined
	}
	s.backSubstitute(dst, 0)
	return nil
}

// backSubstitute extracts the unique solution from a full-rank tableau, a
// full basis or a dense echelon form, into dst. Pivot columns are solved
// in descending order, those whose pivot row lies at or after row first
// before the rest. In a solve of one system first is 0 and the pivot row
// of column c is zero before c. A pair side's own pivot rows (from first
// on) are zero on the shared pivot columns and echelon among themselves;
// the shared pivot rows before them are zero on the shared pivot columns
// before their own but may carry bits on the side's pivot columns, which
// the first sweep has solved by then. Either way every other column a
// pivot row touches is solved before its own, and the row is zero on the
// words before its pivot's, so each step is one word-level dot product
// from the pivot's word against dst, which is still zero on the columns
// not yet solved.
//
//bicoop:noalloc
func (s *Solver) backSubstitute(dst *Vector, first int) {
	clear(dst.words)
	wpr := s.stride - 1
	for _, own := range [2]bool{true, false} {
		for c := s.cols - 1; c >= 0; c-- {
			j := int(s.colRow[c])
			if (j >= first) != own {
				continue
			}
			row := s.buf[j*s.stride:]
			acc := row[wpr] & 1 // the equation's RHS bit
			var x uint64
			for w := c >> 6; w < wpr; w++ {
				x ^= row[w] & dst.words[w]
			}
			acc ^= uint64(bits.OnesCount64(x) & 1)
			dst.words[c>>6] |= acc << uint(c&63)
		}
		if first == 0 {
			break
		}
	}
}

// SolveInto solves rows[i]·x = bits[i] for a k-bit x, writing the solution
// into dst (which must have k bits). It returns ErrInconsistent /
// ErrUnderdetermined unwrapped — the steady-state path, including decoding
// failures, performs zero allocations once the scratch has grown.
func (s *Solver) SolveInto(dst *Vector, k int, rows []Vector, bits []int) error {
	return s.solveRows(dst, k, rows, bits, false)
}

// SolveConsistentInto is SolveInto for systems known to be consistent —
// e.g. decoding noiseless erasure observations, where every equation is a
// true parity of the transmitted message. It eliminates only as many
// equations as the rank needs, skipping the surplus entirely, and never
// returns ErrInconsistent: fed an inconsistent system anyway, it returns
// the unique solution of some full-rank subsystem instead of an error.
// With fewer equations than unknowns it returns ErrUnderdetermined at once,
// without eliminating and without touching dst (shape errors still come
// first).
func (s *Solver) SolveConsistentInto(dst *Vector, k int, rows []Vector, bits []int) error {
	return s.solveRows(dst, k, rows, bits, true)
}

// solveRows validates the system, settles short consistent systems from
// their row count, and dispatches the rest to the incremental basis or the
// dense multi-column eliminator (m4ri.go) by the size cutover. SolveInto
// eliminates short systems too: there inconsistency takes precedence over
// underdetermination.
//
//bicoop:noalloc
func (s *Solver) solveRows(dst *Vector, k int, rows []Vector, bits []int, consistent bool) error {
	if err := checkSystem(dst, k, rows, bits); err != nil {
		return err
	}
	if consistent && len(rows) < k {
		// rank ≤ len(rows) < k, and consistent mode never reports
		// ErrInconsistent: the outcome is known without eliminating.
		return ErrUnderdetermined
	}
	if s.useDense(len(rows), k) {
		return s.solveRowsDense(dst, k, rows, bits, consistent)
	}
	return s.solveRowsIncremental(dst, k, rows, bits, consistent)
}

// checkSystem validates the shape of a system of len(rows) equations over
// k unknowns to be solved into dst.
//
//bicoop:noalloc
func checkSystem(dst *Vector, k int, rows []Vector, bits []int) error {
	if len(rows) != len(bits) {
		return fmt.Errorf("%w: %d rows, %d bits", ErrShape, len(rows), len(bits))
	}
	if dst.n != k {
		return fmt.Errorf("%w: dst %d bits, want %d", ErrShape, dst.n, k)
	}
	for i, row := range rows {
		if row.n != k {
			return fmt.Errorf("%w: row %d has %d bits, want %d", ErrShape, i, row.n, k)
		}
	}
	return nil
}

// SolvePairConsistentInto decodes two consistent systems over the same k
// unknowns that share equations — two receivers of one broadcast, each
// behind its own erasures — into dstA and dstB. The equations are laid out
// as onlyA ++ shared ++ onlyB, with na equations in the first group and nb
// in the last: system A is rows[:len(rows)-nb] and system B is rows[na:].
// Each side's result is exactly what SolveConsistentInto returns for its
// own equations (the same solution, the same error, dst untouched unless
// solved), but on the dense path the shared equations are eliminated
// once: a first pass takes its pivots from the shared equations alone,
// reducing both sides' own equations with the same tables, and each side
// then finishes with its own. A side with fewer than k equations, or a
// pair below the dense cutover, is solved by SolveConsistentInto per side.
// Invalid group sizes return ErrShape for both sides.
func (s *Solver) SolvePairConsistentInto(dstA, dstB *Vector, k int, rows []Vector, bits []int, na, nb int) (errA, errB error) {
	if na < 0 || nb < 0 || na+nb > len(rows) || len(rows) != len(bits) {
		return fmt.Errorf("%w: groups of %d and %d in %d rows, %d bits", ErrShape, na, nb, len(rows), len(bits)),
			fmt.Errorf("%w: groups of %d and %d in %d rows, %d bits", ErrShape, na, nb, len(rows), len(bits))
	}
	end := len(rows) - nb
	rowsA, bitsA, rowsB, bitsB := rows[:end], bits[:end], rows[na:], bits[na:]
	if checkSystem(dstA, k, rowsA, bitsA) != nil || checkSystem(dstB, k, rowsB, bitsB) != nil ||
		len(rowsA) < k || len(rowsB) < k || !s.useDense(min(len(rowsA), len(rowsB)), k) {
		return s.SolveConsistentInto(dstA, k, rowsA, bitsA), s.SolveConsistentInto(dstB, k, rowsB, bitsB)
	}
	return s.solvePairDense(dstA, dstB, k, rows, bits, na, nb)
}

// useDense applies the multi-column cutover: wide systems with at least as
// many equations as unknowns (a short SolveInto system is underdetermined
// or inconsistent, which the incremental basis settles with a tableau of
// at most rows+1 rows).
func (s *Solver) useDense(nrows, cols int) bool {
	switch s.force {
	case forceIncremental:
		return false
	case forceDense:
		return true
	}
	return cols >= m4riMinCols && nrows >= cols
}

//bicoop:noalloc
func (s *Solver) solveRowsIncremental(dst *Vector, k int, rows []Vector, bits []int, consistent bool) error {
	s.begin(len(rows), k)
	rank := 0
	inconsistent := false
	for i := range rows {
		cur := s.loadSpare(rank, rows[i].words, uint64(bits[i]&1))
		lead, zero := s.reduce(cur)
		if lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
			if consistent && rank == k {
				break
			}
		} else if !zero && !consistent {
			// In consistent mode a surviving RHS bit on a dependent row is
			// ignored, keeping the documented never-ErrInconsistent contract
			// independent of row order.
			inconsistent = true
		}
	}
	return s.finishSolve(dst, rank, inconsistent)
}

// SolveMatrixInto solves m·x = b into dst without cloning m; dst must have
// m.Cols() bits and b m.Rows() bits.
func (s *Solver) SolveMatrixInto(dst *Vector, m Matrix, b Vector) error {
	if b.n != m.rows {
		return fmt.Errorf("%w: rhs %d bits, matrix %d rows", ErrShape, b.n, m.rows)
	}
	if dst.n != m.cols {
		return fmt.Errorf("%w: dst %d bits, matrix %d cols", ErrShape, dst.n, m.cols)
	}
	s.begin(m.rows, m.cols)
	rank := 0
	inconsistent := false
	for i := 0; i < m.rows; i++ {
		cur := s.loadSpare(rank, m.rowWords(i), uint64(b.Bit(i)))
		lead, zero := s.reduce(cur)
		if lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		} else if !zero {
			inconsistent = true
		}
	}
	return s.finishSolve(dst, rank, inconsistent)
}

// Rank computes the GF(2) rank of m in the scratch tableau, leaving m
// untouched.
func (s *Solver) Rank(m Matrix) int {
	s.begin(m.rows, m.cols)
	rank := 0
	for i := 0; i < m.rows && rank < m.cols; i++ {
		cur := s.loadSpare(rank, m.rowWords(i), 0)
		if lead, _ := s.reduce(cur); lead >= 0 {
			s.colRow[lead] = int32(rank)
			rank++
		}
	}
	return rank
}
