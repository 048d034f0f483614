package gf2

import "math/bits"

// Dense multi-column elimination — the "method of four Russians" (M4RI)
// path of Solver. The incremental basis (solver.go) eliminates one pivot
// column per row XOR; on the simulators' consistent systems most of its
// solve is spent re-XORing long rows one pivot at a time. This path loads
// the equations into a dense tableau and eliminates m4riStripe pivot
// columns per pass: the stripe's pivot rows are reduced to a local reduced
// row echelon form (each is a unit vector on the stripe's pivot columns),
// their combinations are precomputed into a table indexed directly by a
// row's stripe bits restricted to the pivot columns —
// idx = row[w0]>>shift & pivMask, one shift and mask because the stripe
// never crosses a word (m4riStripe divides 64) — and every row below the
// pivot block then clears the whole stripe with ONE lookup + row XOR
// instead of up to m4riStripe pivot XORs.
//
// The result is a row echelon form, not the reduced one: rows above a
// stripe's pivot block are never touched again, because a decode's outcome
// depends only on the rank, on the rows left below, and on the solution,
// which back substitution (shared with the incremental basis) reads off
// the pivot rows. Two invariants keep it exact:
//
//   - after a stripe is processed, every row below its pivot block is zero
//     on all of the stripe's columns (pivot columns are cleared by the
//     table XOR; free columns only appear when every remaining row was
//     examined and reduced to a zero stripe);
//   - table rows are combinations of pivot rows drawn from below the
//     previous pivot blocks, which by the first invariant are zero on every
//     earlier stripe — so later passes never re-contaminate earlier
//     columns, and on a full-rank system every pivot row is zero before
//     its own column, as back substitution needs.
//
// The invariants also bound the work: when stripe c0 is processed, every
// row XOR — pivot search, table build and table application alike —
// involves only rows that are zero on all words before c0's word, so the
// inner loops start there. At the end the leftover rows are zero on every
// column, so a surviving RHS bit is exactly an inconsistency.
//
// The table costs one row XOR per entry, so a full 2^m4riStripe-entry
// table only pays while at least that many rows remain below the pivot
// block. Past that point (the final stretch of every solve) the stripe is
// split into two 4-column halves with a 16-entry table each: 32 entries to
// build, and each row XORs in one entry of each table in the same pass.
// In an interleaved A/B at the ladder shapes this cut dense solve time by
// 3–35% against full tables throughout, most at the narrow shapes;
// switching at 224 or 448 rows instead of 256 measured the same.

const (
	// m4riStripe is the number of pivot columns eliminated per table pass:
	// a full table holds 2^8 = 256 combinations.
	m4riStripe = 8
	// m4riMinCols is the automatic cutover: systems with at least this
	// many unknowns eliminate densely, narrower ones keep the incremental
	// basis. Measured on random consistent systems with ≈1.11 equations
	// per unknown (the simulators' ratio at 0.9 of the bound), the
	// incremental basis still wins at 128 unknowns and the dense path wins
	// from about 192. At every shape the waterfall's n=1200 and n=4000
	// blocks issue, k=320..1483, dense is 2.2–3.2x faster (doc.go has the
	// ladder; 256 keeps the cutover clear of the 128–192 crossover).
	m4riMinCols = 256
	// m4riSlack is the number of surplus equations loaded beyond the
	// unknown count in consistent mode. Every loaded row is eliminated
	// through every stripe, so surplus rows are pure cost, while random
	// k+s rows fall short of rank k with probability below 2^-s: with 16,
	// about one solve in 65000 finds its prefix rank deficient and falls
	// back to the incremental path over the full equation set. Against 64
	// surplus rows this cuts the n=1200 dense solves by ≈8%.
	m4riSlack = 16
	// m4riHalfRows is the number of rows below the pivot block under which
	// a stripe uses two half-stripe tables instead of one full table: the
	// full table's 256 entries then cost more than the second lookup the
	// halves add per row.
	m4riHalfRows = 1 << m4riStripe
)

// reserveDense pre-grows the dense tableau and combination table so the
// steady state allocates nothing (companion of Reserve).
//
//bicoop:allow noalloc — scratch grower: allocates here so solves never do
func (s *Solver) reserveDense(rows, cols int) {
	stride := wordsFor(cols) + 1
	if need := rows * stride; cap(s.dense) < need {
		s.dense = make([]uint64, 0, need)
	}
	if need := (1 << m4riStripe) * stride; cap(s.table) < need {
		s.table = make([]uint64, 0, need)
	}
}

// beginDense sizes the dense tableau for n equations over cols unknowns.
//
//bicoop:allow noalloc — scratch grower: allocates only on first use per shape
func (s *Solver) beginDense(n, cols int) {
	s.cols = cols
	s.stride = wordsFor(cols) + 1
	if need := n * s.stride; cap(s.dense) < need {
		s.dense = make([]uint64, need)
	} else {
		s.dense = s.dense[:need]
	}
	if need := (1 << m4riStripe) * s.stride; cap(s.table) < need {
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
		if lim := k + m4riSlack; n > lim {
			n = lim
		}
	}
	s.beginDense(n, k)
	wpr := s.stride - 1
	for i := 0; i < n; i++ {
		t := s.dense[i*s.stride : (i+1)*s.stride]
		copy(t[:wpr], rows[i].words)
		for w := len(rows[i].words); w < wpr; w++ {
			t[w] = 0
		}
		t[wpr] = uint64(bits[i] & 1)
	}
	rank, inconsistent := s.eliminateDense(n)
	if consistent {
		if rank < k && n < len(rows) {
			// The loaded prefix fell short of full rank; the surplus
			// equations may still complete it.
			return s.solveRowsIncremental(dst, k, rows, bits, true)
		}
		inconsistent = false
	}
	return s.finishSolve(dst, s.dense, rank, inconsistent)
}

// eliminateDense reduces the n-row dense tableau to row echelon form,
// m4riStripe pivot columns per pass, and reports the rank and whether any
// dependent equation survived with a set RHS bit.
//
//bicoop:noalloc
func (s *Solver) eliminateDense(n int) (rank int, inconsistent bool) {
	stride := s.stride
	var pivRow [m4riStripe]int // stripe bit -> tableau row of its pivot
	for c0 := 0; c0 < s.cols && rank < n; c0 += m4riStripe {
		ge := min(m4riStripe, s.cols-c0)
		w0, shift := c0>>6, uint(c0&63)
		stripeMask := uint64(1)<<uint(ge) - 1

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
		for i := rank; i < n && found < ge; i++ {
			row := s.denseRow(i, w0)
			for m := row[0] >> shift & pivMask; m != 0; m &= m - 1 {
				xorRow(row, s.denseRow(pivRow[bits.TrailingZeros64(m)], w0))
			}
			v := row[0] >> shift & stripeMask
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
			top := rank + found
			if i != top {
				other := s.denseRow(top, w0)
				for w := range row {
					row[w], other[w] = other[w], row[w]
				}
			}
			pivRow[j] = top
			pivMask |= 1 << uint(j)
			found++
		}
		if found == 0 {
			continue
		}

		// One lookup + XOR per table clears the stripe's pivot columns in
		// every row below the pivot block.
		below := s.dense[(rank+found)*stride : n*stride]
		if n-rank-found >= m4riHalfRows {
			s.buildTable(0, pivMask, pivRow[:], w0)
			for o := 0; o < len(below); o += stride {
				row := below[o+w0 : o+stride]
				if idx := int(row[0] >> shift & pivMask); idx != 0 {
					xorRow(row, s.table[idx*stride+w0:])
				}
			}
		} else {
			const half = m4riStripe / 2
			lo, hi := pivMask&(1<<half-1), pivMask>>half
			s.buildTable(0, lo, pivRow[:half], w0)
			s.buildTable(1<<half, hi, pivRow[half:], w0)
			for o := 0; o < len(below); o += stride {
				row := below[o+w0 : o+stride]
				v := row[0] >> shift
				t1 := s.table[int(v&lo)*stride+w0:]
				t2 := s.table[(1<<half+int(v>>half&hi))*stride+w0:]
				t1, t2 = t1[:len(row)], t2[:len(row)]
				for w := range row {
					row[w] ^= t1[w] ^ t2[w]
				}
			}
		}

		for m := pivMask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			s.colRow[c0+j] = int32(pivRow[j])
		}
		rank += found
	}

	wpr := stride - 1
	for i := rank; i < n; i++ {
		if s.dense[i*stride+wpr]&1 != 0 {
			return rank, true
		}
	}
	return rank, false
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
	return s.dense[i*s.stride+w0 : (i+1)*s.stride]
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
