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
