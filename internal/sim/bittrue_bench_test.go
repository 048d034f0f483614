package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bicoop/internal/protocols"
)

// The benchmark operating points are fixed (pinned durations, no LP) so the
// ledgers in BENCH_baseline.json / BENCH_after.json compare equal workloads:
// same block length, same trial count, same rates.

func benchTDBCConfig(workers int) BitTrueConfig {
	return BitTrueConfig{
		Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
		Durations:   []float64{0.35, 0.35, 0.3},
		BlockLength: 2000,
		Trials:      64,
		Seed:        1,
		Workers:     workers,
	}
}

func benchMABCConfig(workers int) MABCBitTrueConfig {
	return MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate:        0.3,
		Durations:   []float64{0.5, 0.5},
		BlockLength: 2000,
		Trials:      64,
		Seed:        1,
		Workers:     workers,
	}
}

// BenchmarkBitTrueTDBC measures a full single-threaded bit-true TDBC run
// (64 blocks of 2000 channel uses) — the ledger's headline bit-true number.
func BenchmarkBitTrueTDBC(b *testing.B) {
	cfg := benchTDBCConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueTDBCParallel is the same workload sharded over GOMAXPROCS
// workers; the ratio to BenchmarkBitTrueTDBC is the pool's scaling.
func BenchmarkBitTrueTDBCParallel(b *testing.B) {
	cfg := benchTDBCConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueMABC measures a full single-threaded compute-and-forward
// MABC run (64 blocks of 2000 uses).
func BenchmarkBitTrueMABC(b *testing.B) {
	cfg := benchMABCConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueMABC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueMABCParallel shards the MABC workload over GOMAXPROCS.
func BenchmarkBitTrueMABCParallel(b *testing.B) {
	cfg := benchMABCConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueMABC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTDBCWorker builds one worker at the benchmark operating point.
func benchTDBCWorker(tb testing.TB, cfg BitTrueConfig) *tdbcWorker {
	tb.Helper()
	p, _, err := deriveTDBCParams(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return newTDBCWorker(cfg.Net, p, cfg.Seed)
}

// benchMABCWorkerAt builds one worker at the benchmark operating point.
func benchMABCWorkerAt(tb testing.TB, cfg MABCBitTrueConfig) *mabcWorker {
	tb.Helper()
	n := cfg.BlockLength
	n1 := int(math.Round(cfg.Durations[0] * float64(n)))
	k := int(math.Floor(cfg.Rate * float64(n)))
	return newMABCWorker(cfg, k, n1, n-n1)
}

// BenchmarkBitTrueTDBCBlock measures the per-block kernel: the per-trial
// stream reseed, three in-place code redraws, three encodes, erasures, and
// four word-level eliminations. Steady state must report 0 allocs/op (see
// TestBitTrueTDBCBlockZeroAllocs).
func BenchmarkBitTrueTDBCBlock(b *testing.B) {
	w := benchTDBCWorker(b, benchTDBCConfig(1))
	w.runTrial(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.runTrial(i)
	}
}

// BenchmarkBitTrueMABCBlock measures the per-block compute-and-forward
// kernel (reseed, two code redraws, two encodes, three eliminations).
func BenchmarkBitTrueMABCBlock(b *testing.B) {
	w := benchMABCWorkerAt(b, benchMABCConfig(1))
	w.runTrial(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.runTrial(i)
	}
}

// blockAllocs warms w on trials 0..2, then reports the average allocations
// of its next blocks (each reseeded for its own trial) and their outcomes.
func blockAllocs(w blockWorker) (float64, tally) {
	var counts tally
	t := 0
	trial := func() {
		counts[w.runTrial(t)]++
		t++
	}
	for t < 3 {
		trial()
	}
	return testing.AllocsPerRun(200, trial), counts
}

// TestBitTrueTDBCBlockZeroAllocs is the allocation-regression gate for the
// bit-true per-block kernel: once a worker is built, a block — including
// decode failures — must not allocate. Every buffer is pre-sized to its
// maximum (phase lengths bound the accumulators, Solver.Reserve bounds the
// tableau), so this is strict equality, not an average.
func TestBitTrueTDBCBlockZeroAllocs(t *testing.T) {
	if n, _ := blockAllocs(benchTDBCWorker(t, benchTDBCConfig(1))); n != 0 {
		t.Errorf("TDBC block allocates %.2f/op, want 0", n)
	}
	// Also at an operating point above the bound, where decodes fail and the
	// error paths run.
	cfg := benchTDBCConfig(1)
	cfg.Rates = protocols.RatePair{Ra: 0.4, Rb: 0.4}
	n, counts := blockAllocs(benchTDBCWorker(t, cfg))
	if n != 0 {
		t.Errorf("failing TDBC block allocates %.2f/op, want 0", n)
	}
	if counts[decoded] > 0 {
		t.Errorf("expected only failures far above the bound, got %d successes", counts[decoded])
	}
}

// TestBitTrueMABCBlockZeroAllocs gates the MABC kernel the same way.
func TestBitTrueMABCBlockZeroAllocs(t *testing.T) {
	if n, _ := blockAllocs(benchMABCWorkerAt(t, benchMABCConfig(1))); n != 0 {
		t.Errorf("MABC block allocates %.2f/op, want 0", n)
	}
	cfg := benchMABCConfig(1)
	cfg.Rate = 0.55 // above both phase constraints
	if n, _ := blockAllocs(benchMABCWorkerAt(t, cfg)); n != 0 {
		t.Errorf("failing MABC block allocates %.2f/op, want 0", n)
	}
}

// TestBitTrueTDBCShardingDeterministic pins that a sharded run is
// reproducible for a fixed (Seed, Trials) and replays the sequential run
// exactly.
func TestBitTrueTDBCShardingDeterministic(t *testing.T) {
	cfg := benchTDBCConfig(4)
	cfg.Trials = 40
	r1, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	seq, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(r1, seq) {
		t.Errorf("sharded runs %+v, %+v differ from each other or from the sequential %+v", r1, r2, seq)
	}
}

// TestBitTrueTDBCShardedMatchesSequential pins the sharded run against the
// sequential (Workers=1) one: same config, different worker counts must give
// identical results at a mid-waterfall operating point, where a reordered or
// misattributed trial would actually show.
func TestBitTrueTDBCShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo comparison")
	}
	net := ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	cfg := BitTrueConfig{
		Net: net,
		// Just below the pinned-duration operating point: success is high
		// but not saturated, so the comparison is informative.
		Rates:       protocols.RatePair{Ra: 0.26, Rb: 0.26},
		Durations:   []float64{0.35, 0.35, 0.3},
		BlockLength: 700,
		Trials:      600,
		Seed:        77,
		Workers:     1,
	}
	seq, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sequential %+v vs sharded %+v: want identical results", seq, par)
	}
	if seq.SuccessProb <= 0.5 || seq.SuccessProb >= 0.999 {
		t.Errorf("operating point drifted out of the informative band: %.4f", seq.SuccessProb)
	}
}

// TestBitTrueMABCShardedMatchesSequential is the MABC counterpart.
func TestBitTrueMABCShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo comparison")
	}
	bound, durations := MABCComputeForwardBound(0.2, 0.15, 0.1)
	cfg := MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate:        bound * 0.93,
		Durations:   durations,
		BlockLength: 700,
		Trials:      600,
		Seed:        78,
		Workers:     1,
	}
	seq, err := RunBitTrueMABC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunBitTrueMABC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sequential %+v vs sharded %+v: want identical results", seq, par)
	}
	if seq.SuccessProb <= 0.5 || seq.SuccessProb >= 0.999 {
		t.Errorf("operating point drifted out of the informative band: %.4f", seq.SuccessProb)
	}
}

// TestBitTrueWorkerCountIndependence checks the merge arithmetic: total
// trials across any worker split must equal the configured count, with no
// block double-counted or dropped (success+failures == trials).
func TestBitTrueWorkerCountIndependence(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		cfg := benchTDBCConfig(workers)
		cfg.Trials = 37
		cfg.BlockLength = 400
		res, err := RunBitTrueTDBC(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		succ := int(res.SuccessProb*float64(cfg.Trials) + 0.5)
		if got := succ + res.RelayFailures + res.TerminalFailures; got != cfg.Trials {
			t.Errorf("workers=%d: %d successes + %d relay + %d terminal != %d trials",
				workers, succ, res.RelayFailures, res.TerminalFailures, cfg.Trials)
		}
	}
}
