package gf2

import "math/bits"

// Dense multi-column elimination — the "method of four Russians" (M4RI)
// path of Solver. The incremental basis (solver.go) eliminates one pivot
// column per row XOR; on the simulators' consistent systems most of its
// solve is spent re-XORing long rows one pivot at a time. This path loads
// the equations into a dense tableau and eliminates m4riStripe pivot
// columns per pass: the stripe's pivot rows are reduced to a local reduced
// row echelon form (each is a unit vector on the stripe's pivot columns),
// their combinations are precomputed into tables indexed directly by a
// row's stripe bits restricted to the pivot columns — one shift and mask
// per table, because the stripe never crosses a word (m4riStripe divides
// 64) — and every row below the pivot block then clears the whole stripe
// with one XOR of a few table entries instead of up to m4riStripe pivot
// XORs.
//
// The result is a row echelon form, not the reduced one: rows above a
// stripe's pivot block are never touched again, because a decode's outcome
// depends only on the rank, on the rows left below, and on the solution,
// which back substitution (shared with the incremental basis) reads off
// the pivot rows. Two invariants keep it exact:
//
//   - after a stripe is processed, every candidate row below its pivot
//     block is zero on all of the stripe's columns (pivot columns are
//     cleared by the table XOR; free columns only appear when every
//     remaining candidate was examined and reduced to a zero stripe);
//   - table rows are combinations of pivot rows drawn from below the
//     previous pivot blocks, which by the first invariant are zero on every
//     earlier stripe — so later passes never re-contaminate earlier
//     columns, and on a full-rank system every pivot row is zero before
//     its own stripe.
//
// The invariants also bound the work: when stripe c0 is processed, every
// row XOR — pivot search, table build and table application alike —
// involves only rows that are zero on all words before c0's word, so the
// inner loops start there. At the end the leftover rows are zero on every
// column, so a surviving RHS bit is exactly an inconsistency.
//
// A table costs one row XOR per entry, and every extra table costs each
// row below one more entry to XOR in. A pass splits its 16 pivot columns
// into two 8-bit tables (512 entries) while more than m4riWideRows rows
// remain below the pivot block, and into four 4-bit tables (64 entries)
// over the final stretch of every solve.
//
// Pair decoding (SolvePairConsistentInto) runs the same passes over a
// tableau of three row groups — the equations both systems share, then
// each system's own — in three calls: the shared rows supply every pivot
// of the first, the own rows riding along below them, and each system's
// own rows then finish the elimination beneath the shared pivot block.

const (
	// m4riStripe is the number of pivot columns eliminated per pass.
	m4riStripe = 16
	// m4riMinCols is the automatic cutover: systems with at least this
	// many unknowns eliminate densely, narrower ones keep the incremental
	// basis. Measured on random consistent systems with ≈1.11 equations
	// per unknown (the simulators' ratio at 0.9 of the bound), the
	// incremental basis still wins at 128 unknowns and the dense path wins
	// from about 192. At every shape the waterfall's n=1200 and n=4000
	// blocks issue, k=320..1483, dense is several times faster (doc.go has
	// the ladder; 256 keeps the cutover clear of the 128–192 crossover).
	m4riMinCols = 256
	// m4riSlack is the number of surplus equations loaded beyond the
	// unknown count in consistent mode. Every loaded row is eliminated
	// through every stripe, so surplus rows are pure cost, while random
	// k+s rows fall short of rank k with probability below 2^-s: with 16,
	// about one solve in 65000 finds its prefix rank deficient and falls
	// back to the incremental path over the full equation set. Against 64
	// surplus rows this cuts the n=1200 dense solves by ≈8%.
	m4riSlack = 16
	// m4riWideRows is the number of rows below the pivot block above which
	// a pass uses two 8-bit tables instead of four 4-bit ones: the 448
	// extra entries to build then cost less than the two extra entries
	// every row would XOR in.
	m4riWideRows = 900
	// m4riTableRows is the combination-table scratch: two 256-entry
	// tables (the four 4-bit tables use the first 64 rows).
	m4riTableRows = 2 << 8
)

// beginDense sizes the dense tableau for n equations over cols unknowns.
//
//bicoop:allow noalloc — scratch grower: allocates only on first use per shape
func (s *Solver) beginDense(n, cols int) {
	s.cols = cols
	s.stride = wordsFor(cols) + 1
	if need := n * s.stride; cap(s.buf) < need {
		s.buf = make([]uint64, need)
	} else {
		s.buf = s.buf[:need]
	}
	if need := m4riTableRows * s.stride; cap(s.table) < need {
		s.table = make([]uint64, need)
	} else {
		s.table = s.table[:need]
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

// loadDense copies equations (row words + RHS bit) into the dense tableau
// from row at on.
//
//bicoop:noalloc
func (s *Solver) loadDense(at int, rows []Vector, bits []int) {
	wpr := s.stride - 1
	for i := range rows {
		t := s.buf[(at+i)*s.stride : (at+i+1)*s.stride]
		copy(t[:wpr], rows[i].words)
		for w := len(rows[i].words); w < wpr; w++ {
			t[w] = 0
		}
		t[wpr] = uint64(bits[i] & 1)
	}
}

// solveRowsDense is the multi-column SolveInto/SolveConsistentInto engine.
// In consistent mode it loads only cols+m4riSlack equations — enough for
// full rank on all but adversarial systems — and falls back to the
// incremental path over the complete set when that prefix is rank
// deficient, preserving bit-exact agreement with the reference solver.
//
//bicoop:noalloc
func (s *Solver) solveRowsDense(dst *Vector, k int, rows []Vector, bits []int, consistent bool) error {
	n := len(rows)
	if consistent {
		n = min(n, k+m4riSlack)
	}
	s.beginDense(n, k)
	s.loadDense(0, rows[:n], bits[:n])
	rank := s.eliminateDense(0, n, n)
	if !consistent {
		return s.finishSolve(dst, rank, s.denseInconsistent(rank, n))
	}
	if rank < k && n < len(rows) {
		// The loaded prefix fell short of full rank; the surplus equations
		// may still complete it.
		return s.solveRowsIncremental(dst, k, rows, bits, true)
	}
	return s.finishSolve(dst, rank, false)
}

// solvePairDense is the dense engine of SolvePairConsistentInto, for two
// sides that both have at least k equations. Like solveRowsDense it loads
// k+m4riSlack equations per side, shared ones first: the tableau holds ls
// shared rows, then la of A's own and lb of B's own. The first pass takes
// its pivots from the shared rows alone; each side then finishes beneath
// the shared pivot block. A side that falls short of rank k resolves after
// both finishes, as SolveConsistentInto over its own rows would: short of
// rank from its complete equation set, or by a SolveConsistentInto call
// when only part of it was loaded.
//
//bicoop:noalloc
func (s *Solver) solvePairDense(dstA, dstB *Vector, k int, rows []Vector, bits []int, na, nb int) (errA, errB error) {
	ns := len(rows) - na - nb
	lim := k + m4riSlack
	ls := min(ns, lim)
	la, lb := min(na, lim-ls), min(nb, lim-ls)
	n := ls + la + lb
	s.beginDense(n, k)
	s.loadDense(0, rows[na:na+ls], bits[na:na+ls])
	s.loadDense(ls, rows[:la], bits[:la])
	s.loadDense(ls+la, rows[na+ns:na+ns+lb], bits[na+ns:na+ns+lb])

	shared := s.eliminateDense(0, ls, n)
	fullA := s.finishPairSide(dstA, shared, ls, ls+la)
	for c, j := range s.colRow {
		if j >= int32(ls) {
			s.colRow[c] = -1 // drop A's pivots; B's own rows are still as the shared pass left them
		}
	}
	fullB := s.finishPairSide(dstB, shared, ls+la, n)

	end := len(rows) - nb
	errA = s.pairFallback(fullA, ls == ns && la == na, dstA, k, rows[:end], bits[:end])
	errB = s.pairFallback(fullB, ls == ns && lb == nb, dstB, k, rows[na:], bits[na:])
	return errA, errB
}

// finishPairSide eliminates one side's own rows, tableau rows [lo, hi),
// beneath the shared pivot block of rank shared, and back-substitutes into
// dst when the side reaches full rank: its own pivot columns first, since
// the shared pivot rows may carry bits on them.
//
//bicoop:noalloc
func (s *Solver) finishPairSide(dst *Vector, shared, lo, hi int) bool {
	if shared+s.eliminateDense(lo, hi, hi)-lo < s.cols {
		return false
	}
	s.backSubstitute(dst, lo)
	return true
}

// pairFallback settles one side of a pair decode: solved when it reached
// full rank, rank deficient when its complete equation set was loaded, and
// otherwise whatever SolveConsistentInto returns for its own equations.
//
//bicoop:noalloc
func (s *Solver) pairFallback(full, loadedAll bool, dst *Vector, k int, rows []Vector, bits []int) error {
	switch {
	case full:
		return nil
	case loadedAll:
		return ErrUnderdetermined
	}
	return s.SolveConsistentInto(dst, k, rows, bits)
}

// eliminateDense reduces tableau rows [top, n) to row echelon form,
// m4riStripe columns per pass, and returns the row after the last pivot.
// Pivots are taken from rows [top, search) only, and only on columns that
// have none yet; rows from search on are reduced by every pass's tables
// but never become pivots. A stripe whose columns all have pivots is
// skipped.
//
//bicoop:noalloc
func (s *Solver) eliminateDense(top, search, n int) int {
	var pivRow [m4riStripe]int // stripe bit -> tableau row of its pivot
	for c0 := 0; c0 < s.cols && top < search; c0 += m4riStripe {
		ge := min(m4riStripe, s.cols-c0)
		w0, shift := c0>>6, uint(c0&63)
		var freeMask uint64
		for j, r := range s.colRow[c0 : c0+ge] {
			if r < 0 {
				freeMask |= 1 << uint(j)
			}
		}
		want := bits.OnesCount64(freeMask)
		if want == 0 {
			continue
		}

		// Pivot search: Gaussian elimination restricted to the stripe.
		// Each candidate is reduced against the stripe pivots found so
		// far; its lowest surviving stripe bit becomes a new pivot column,
		// the found pivots are back-reduced against it (local RREF), and
		// the row is swapped up to the pivot block. pivMask holds the
		// stripe bits that are pivot columns; since the found pivots are
		// unit vectors on those columns, the candidate's own bits there
		// name exactly the pivots to XOR in.
		var pivMask uint64
		found := 0
		for i := top; i < search && found < want; i++ {
			row := s.denseRow(i, w0)
			for m := row[0] >> shift & pivMask; m != 0; m &= m - 1 {
				xorRow(row, s.denseRow(pivRow[bits.TrailingZeros64(m)], w0))
			}
			v := row[0] >> shift & freeMask
			if v == 0 {
				continue
			}
			j := bits.TrailingZeros64(v)
			for m := pivMask; m != 0; m &= m - 1 {
				piv := s.denseRow(pivRow[bits.TrailingZeros64(m)], w0)
				if piv[0]>>(shift+uint(j))&1 != 0 {
					xorRow(piv, row)
				}
			}
			if p := top + found; i != p {
				other := s.denseRow(p, w0)
				for w := range row {
					row[w], other[w] = other[w], row[w]
				}
			}
			pivRow[j] = top + found
			pivMask |= 1 << uint(j)
			found++
		}
		if found == 0 {
			continue
		}
		s.clearStripe(top+found, n, pivMask, &pivRow, w0, shift)
		for m := pivMask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			s.colRow[c0+j] = int32(pivRow[j])
		}
		top += found
	}
	return top
}

// clearStripe clears the stripe's pivot columns in tableau rows [from, n)
// with one XOR of table entries per row: two 8-bit tables while more than
// m4riWideRows rows remain, four 4-bit tables otherwise.
//
//bicoop:noalloc
func (s *Solver) clearStripe(from, n int, pivMask uint64, pivRow *[m4riStripe]int, w0 int, shift uint) {
	stride := s.stride
	below := s.buf[from*stride : n*stride]
	if n-from > m4riWideRows {
		m0, m1 := pivMask&0xff, pivMask>>8
		s.buildTable(0, m0, pivRow[:8], w0)
		s.buildTable(256, m1, pivRow[8:], w0)
		for o := 0; o < len(below); o += stride {
			row := below[o+w0 : o+stride]
			v := row[0] >> shift
			t0 := s.table[int(v&m0)*stride+w0:]
			t1 := s.table[(256+int(v>>8&m1))*stride+w0:]
			t0, t1 = t0[:len(row)], t1[:len(row)]
			for w := range row {
				row[w] ^= t0[w] ^ t1[w]
			}
		}
		return
	}
	m0, m1, m2, m3 := pivMask&0xf, pivMask>>4&0xf, pivMask>>8&0xf, pivMask>>12
	s.buildTable(0, m0, pivRow[0:4], w0)
	s.buildTable(16, m1, pivRow[4:8], w0)
	s.buildTable(32, m2, pivRow[8:12], w0)
	s.buildTable(48, m3, pivRow[12:], w0)
	for o := 0; o < len(below); o += stride {
		row := below[o+w0 : o+stride]
		v := row[0] >> shift
		t0 := s.table[int(v&m0)*stride+w0:]
		t1 := s.table[(16+int(v>>4&m1))*stride+w0:]
		t2 := s.table[(32+int(v>>8&m2))*stride+w0:]
		t3 := s.table[(48+int(v>>12&m3))*stride+w0:]
		t0, t1, t2, t3 = t0[:len(row)], t1[:len(row)], t2[:len(row)], t3[:len(row)]
		for w := range row {
			row[w] ^= t0[w] ^ t1[w] ^ t2[w] ^ t3[w]
		}
	}
}

// denseInconsistent reports whether a dependent equation, a tableau row
// from rank on, survived elimination with a set RHS bit.
//
//bicoop:noalloc
func (s *Solver) denseInconsistent(rank, n int) bool {
	wpr := s.stride - 1
	for i := rank; i < n; i++ {
		if s.buf[i*s.stride+wpr]&1 != 0 {
			return true
		}
	}
	return false
}

// buildTable fills the combination table rows base+b, for every subset b
// of mask (entry 0 included), with the XOR of the pivot rows piv[j] over
// b's bits j. Subsets are enumerated in increasing order, so entry b is
// one row XOR off entry b&(b-1), which is already built. Pivot rows are
// zero before word w0, so entries are built (and applied) from w0 on; the
// words below, and the entries outside mask's subsets, keep stale bits
// that nothing reads.
//
//bicoop:noalloc
func (s *Solver) buildTable(base int, mask uint64, piv []int, w0 int) {
	stride := s.stride
	clear(s.table[base*stride+w0 : (base+1)*stride])
	for b := -mask & mask; b != 0; b = (b - mask) & mask {
		t := s.table[(base+int(b))*stride+w0 : (base+int(b)+1)*stride]
		prev := s.table[(base+int(b&(b-1)))*stride+w0:]
		p := s.denseRow(piv[bits.TrailingZeros64(b)], w0)
		prev, p = prev[:len(t)], p[:len(t)]
		for w := range t {
			t[w] = prev[w] ^ p[w]
		}
	}
}

// denseRow returns row i of the dense tableau from word w0 on.
//
//bicoop:noalloc
func (s *Solver) denseRow(i, w0 int) []uint64 {
	return s.buf[i*s.stride+w0 : (i+1)*s.stride]
}

// xorRow XORs src into dst word by word over len(dst) words.
//
//bicoop:noalloc
func xorRow(dst, src []uint64) {
	src = src[:len(dst)]
	for w := range dst {
		dst[w] ^= src[w]
	}
}
