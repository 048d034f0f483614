package gf2

import (
	"errors"
	"math/rand"
	"testing"
)

// The elimination ladder runs the consistent-mode solves the bit-true
// simulators issue on the waterfall operating points (TDBC rates 36/97 and
// 28.8/97 of the {0.2, 0.1, 0.6} erasure network, compute-and-forward MABC
// on {0.2, 0.15, 0.1}), each with the expected number of surviving
// equations — about 1.11 rows per unknown at scale 0.9:
//
//	k     rows  block
//	320    356  n=1200 TDBC relay decode of wb, terminal a's decode
//	400    445  n=1200 TDBC relay decode of wa, terminal b's decode
//	445    494  n=1200 MABC relay decode of the XOR
//	1068  1188  n=4000 TDBC relay decode of wb
//	1336  1485  n=4000 TDBC relay decode of wa
//	1483  1649  n=4000 MABC relay decode of the XOR
//	489    445  n=1200 TDBC relay decode of wa at scale 1.1 (short)
//
// Each full-rank shape runs on both paths, pinned by force; the short
// system runs on the automatic path, which is what the simulators call.

// benchSolve measures a consistent-mode solve of k unknowns from rows
// random equations with the elimination path pinned by force. One warm
// solve before the timer grows the scratch, so the loop measures the
// allocation-free steady state of each path. Systems with at least k rows
// are redrawn until full rank and must return the planted solution; shorter
// ones must report ErrUnderdetermined.
func benchSolve(b *testing.B, k, rows, force int) {
	r := rand.New(rand.NewSource(int64(k)))
	var m Matrix
	for {
		m = RandomMatrix(rows, k, r)
		if rows < k || m.Rank() == k {
			break
		}
	}
	x := RandomVector(k, r)
	rhs, _ := m.MulVec(x)
	rv, _ := matrixRows(m)
	bits := make([]int, rows)
	for i := range bits {
		bits[i] = rhs.Bit(i)
	}
	s := forceSolver(force)
	dst := NewVector(k)
	solve := func() {
		err := s.SolveConsistentInto(&dst, k, rv, bits)
		if rows < k {
			if !errors.Is(err, ErrUnderdetermined) {
				b.Fatalf("short system: err %v, want ErrUnderdetermined", err)
			}
			return
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	solve()
	if rows >= k && !dst.Equal(x) {
		b.Fatal("solver returned a wrong solution")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

func BenchmarkSolveIncremental320(b *testing.B)  { benchSolve(b, 320, 356, forceIncremental) }
func BenchmarkSolveM4RI320(b *testing.B)         { benchSolve(b, 320, 356, forceDense) }
func BenchmarkSolveIncremental400(b *testing.B)  { benchSolve(b, 400, 445, forceIncremental) }
func BenchmarkSolveM4RI400(b *testing.B)         { benchSolve(b, 400, 445, forceDense) }
func BenchmarkSolveIncremental445(b *testing.B)  { benchSolve(b, 445, 494, forceIncremental) }
func BenchmarkSolveM4RI445(b *testing.B)         { benchSolve(b, 445, 494, forceDense) }
func BenchmarkSolveIncremental1068(b *testing.B) { benchSolve(b, 1068, 1188, forceIncremental) }
func BenchmarkSolveM4RI1068(b *testing.B)        { benchSolve(b, 1068, 1188, forceDense) }
func BenchmarkSolveIncremental1336(b *testing.B) { benchSolve(b, 1336, 1485, forceIncremental) }
func BenchmarkSolveM4RI1336(b *testing.B)        { benchSolve(b, 1336, 1485, forceDense) }
func BenchmarkSolveIncremental1483(b *testing.B) { benchSolve(b, 1483, 1649, forceIncremental) }
func BenchmarkSolveM4RI1483(b *testing.B)        { benchSolve(b, 1483, 1649, forceDense) }
func BenchmarkSolveShort489(b *testing.B)        { benchSolve(b, 489, 445, forceAuto) }

// pairSystem draws the n=4000 MABC broadcast as its two terminals see it:
// one n-row random code over k unknowns with a planted message, survival
// probabilities pa and pb on the two links, each terminal keeping the first
// k+m4riSlack surviving rows in index order. It returns the rows laid out as
// onlyA ++ shared ++ onlyB with the group sizes na and nb, so terminal a's
// equations are rows[:len(rows)-nb] and terminal b's rows[na:].
func pairSystem(r *rand.Rand, n, k int, pa, pb float64) (rows []Vector, bits []int, na, nb int, x Vector) {
	g := RandomMatrix(n, k, r)
	x = RandomVector(k, r)
	rhs, _ := g.MulVec(x)
	var onlyA, shared, onlyB []int
	inA, inB := 0, 0
	for i := 0; i < n; i++ {
		a := inA < k+m4riSlack && r.Float64() < pa
		b := inB < k+m4riSlack && r.Float64() < pb
		switch {
		case a && b:
			shared = append(shared, i)
		case a:
			onlyA = append(onlyA, i)
		case b:
			onlyB = append(onlyB, i)
		}
		if a {
			inA++
		}
		if b {
			inB++
		}
	}
	for _, group := range [][]int{onlyA, shared, onlyB} {
		for _, i := range group {
			rows = append(rows, g.RowView(i))
			bits = append(bits, rhs.Bit(i))
		}
	}
	return rows, bits, len(onlyA), len(onlyB), x
}

// benchSolvePair measures the two terminal decodes of pairSystem's n=4000
// shape (k=1483 from a 1939-row code, survival 0.85 and 0.9): one
// SolvePairConsistentInto call, or, with separate set, one
// SolveConsistentInto call per terminal.
func benchSolvePair(b *testing.B, separate bool) {
	const n, k = 1939, 1483
	rows, bits, na, nb, x := pairSystem(rand.New(rand.NewSource(k)), n, k, 0.85, 0.9)
	var s Solver
	dstA, dstB := NewVector(k), NewVector(k)
	solve := func() {
		var errA, errB error
		if separate {
			errA = s.SolveConsistentInto(&dstA, k, rows[:len(rows)-nb], bits[:len(rows)-nb])
			errB = s.SolveConsistentInto(&dstB, k, rows[na:], bits[na:])
		} else {
			errA, errB = s.SolvePairConsistentInto(&dstA, &dstB, k, rows, bits, na, nb)
		}
		if errA != nil || errB != nil {
			b.Fatalf("pair decode: errors %v, %v", errA, errB)
		}
	}
	solve()
	if !dstA.Equal(x) || !dstB.Equal(x) {
		b.Fatal("solver returned a wrong solution")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

func BenchmarkSolvePair1483(b *testing.B)         { benchSolvePair(b, false) }
func BenchmarkSolvePairSeparate1483(b *testing.B) { benchSolvePair(b, true) }
