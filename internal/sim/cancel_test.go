package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bicoop/internal/channel"
	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

// waitGoroutines polls until the goroutine count returns to the baseline or
// the deadline passes, returning the final count.
func waitGoroutines(baseline int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// cancelOnProgress returns a context and a Progress callback that cancels
// it at the first merged chunk, so the run stops mid-flight with a non-empty
// prefix. (A fixed sleep races worker setup: a run cancelled before any
// chunk completes rightly reports 0 trials.)
func cancelOnProgress() (context.Context, func(done, total int)) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(int, int) { cancel() }
}

// The cancellation tests also require a cancelled run's partial result to
// equal, bit for bit, a fresh uncancelled run of the same spec with Trials
// set to the partial count: a cancelled run covers a contiguous prefix of
// whole chunks, so it is itself reproducible.

func TestRunOutageCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := OutageConfig{
		Mean:      channel.GainsFromDB(-7, 0, 5),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    50_000_000, // far more than 20ms of work
		Seed:      1,
		Workers:   2,
	}
	start := time.Now()
	ctx, progress := cancelOnProgress()
	cfg.Progress = progress
	res, err := RunOutage(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	st := res.ByProtocol[protocols.MABC]
	if st.Trials <= 0 || st.Trials >= 50_000_000 {
		t.Errorf("partial Trials = %d, want strictly between 0 and the request", st.Trials)
	}
	if st.MeanOptSumRate <= 0 {
		t.Errorf("partial MeanOptSumRate = %g, want > 0", st.MeanOptSumRate)
	}
	if g := waitGoroutines(before, 2*time.Second); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
	cfg.Trials, cfg.Progress = st.Trials, nil
	fresh, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, fresh) {
		t.Errorf("cancelled run %+v differs from a fresh %d-trial run %+v", res.ByProtocol, st.Trials, fresh.ByProtocol)
	}
}

func TestRunOutagePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunOutage(ctx, OutageConfig{
		Mean:      channel.GainsFromDB(-7, 0, 5),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC},
		Trials:    1000,
		Seed:      1,
		Workers:   1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The context is checked before the first chunk runs.
	if st := res.ByProtocol[protocols.MABC]; st.Trials != 0 {
		t.Errorf("pre-cancelled run reported %d trials, want 0", st.Trials)
	}
}

func TestRunBitTrueTDBCCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := BitTrueConfig{
		Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
		BlockLength: 1000,
		Trials:      10_000_000,
		Seed:        1,
		Workers:     2,
	}
	start := time.Now()
	ctx, progress := cancelOnProgress()
	cfg.Progress = progress
	res, err := RunBitTrueTDBC(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if res.Trials <= 0 || res.Trials >= 10_000_000 {
		t.Errorf("partial Trials = %d, want strictly between 0 and the request", res.Trials)
	}
	if res.SuccessProb < 0 || res.SuccessProb > 1 {
		t.Errorf("partial SuccessProb = %g out of [0,1]", res.SuccessProb)
	}
	if g := waitGoroutines(before, 2*time.Second); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
	cfg.Trials, cfg.Progress = res.Trials, nil
	fresh, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, fresh) {
		t.Errorf("cancelled run %+v differs from a fresh %d-trial run %+v", res, res.Trials, fresh)
	}
}

func TestRunBitTrueMABCCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate:        0.3,
		BlockLength: 1000,
		Trials:      10_000_000,
		Seed:        1,
		Workers:     2,
	}
	ctx, progress := cancelOnProgress()
	cfg.Progress = progress
	res, err := RunBitTrueMABC(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Trials <= 0 || res.Trials >= 10_000_000 {
		t.Errorf("partial Trials = %d, want strictly between 0 and the request", res.Trials)
	}
	if g := waitGoroutines(before, 2*time.Second); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
	cfg.Trials, cfg.Progress = res.Trials, nil
	fresh, err := RunBitTrueMABC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, fresh) {
		t.Errorf("cancelled run %+v differs from a fresh %d-trial run %+v", res, res.Trials, fresh)
	}
}

// TestRunOutageNilContextSafe pins that a nil context degrades to an
// unbounded run rather than panicking (internal callers always pass one,
// but the gate documents the tolerance).
func TestRunOutageNilContextSafe(t *testing.T) {
	//lint:ignore SA1012 deliberate nil-context robustness check
	res, err := RunOutage(nil, OutageConfig{ //nolint:staticcheck
		Mean:      channel.GainsFromDB(-7, 0, 5),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC},
		Trials:    50,
		Seed:      1,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.ByProtocol[protocols.MABC]; st.Trials != 50 {
		t.Errorf("Trials = %d, want 50", st.Trials)
	}
}

// TestProgressReporting checks the progress contract: the emitter merges
// chunks in order and reports from one goroutine, so observations are
// serialized, strictly increasing and end exactly at Trials, whatever the
// worker count.
func TestProgressReporting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var got []int
		res, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
			Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
			Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
			BlockLength: 200,
			Trials:      100,
			Seed:        1,
			Workers:     workers,
			Progress: func(done, total int) {
				if total != 100 {
					t.Errorf("total = %d, want 100", total)
				}
				got = append(got, done) // unsynchronized: the race detector checks serialization
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 100 {
			t.Fatalf("workers %d: Trials = %d, want 100", workers, res.Trials)
		}
		if len(got) == 0 || got[len(got)-1] != 100 {
			t.Fatalf("workers %d: progress observations %v, want final 100", workers, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("workers %d: progress not increasing: %v", workers, got)
			}
		}
	}
}

// TestPreCancelledHugeRunBoundedMemory pins that a run's tally storage is
// O(workers), not O(Trials): a pre-cancelled run asking for far more trials
// than could ever complete allocates about what its worker states cost,
// and a trial count of MaxInt does not overflow the chunk arithmetic.
func TestPreCancelledHugeRunBoundedMemory(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := []struct {
		name   string
		trials int // per-chunk tallies for every chunk would take ~60 MB
		run    func(trials int) (int, error)
	}{
		{"fading", 100_000_000, func(trials int) (int, error) {
			res, err := RunOutage(ctx, OutageConfig{
				Mean:      channel.GainsFromDB(-7, 0, 5),
				P:         xmath.FromDB(10),
				Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
				Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
				Trials:    trials,
				Seed:      1,
				Workers:   2,
			})
			return res.ByProtocol[protocols.MABC].Trials, err
		}},
		{"tdbc", 10_000_000, func(trials int) (int, error) {
			res, err := RunBitTrueTDBC(ctx, BitTrueConfig{
				Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
				Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
				BlockLength: 200,
				Trials:      trials,
				Seed:        1,
				Workers:     2,
			})
			return res.Trials, err
		}},
		{"mabc", 10_000_000, func(trials int) (int, error) {
			res, err := RunBitTrueMABC(ctx, MABCBitTrueConfig{
				EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
				Rate:        0.3,
				BlockLength: 200,
				Trials:      trials,
				Seed:        1,
				Workers:     2,
			})
			return res.Trials, err
		}},
	}
	for _, r := range runs {
		for _, trials := range []int{r.trials, math.MaxInt} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			done, err := r.run(trials)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, %d trials: err = %v, want context.Canceled", r.name, trials, err)
			}
			if done < 0 || done >= trials {
				t.Errorf("%s, %d trials: reported %d trials", r.name, trials, done)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s, %d trials: %d bytes", r.name, trials, got)
			if got > 1<<20 {
				t.Errorf("%s, %d trials: pre-cancelled run allocated %d bytes, want O(workers)", r.name, trials, got)
			}
		}
	}
}
