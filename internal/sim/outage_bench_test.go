package sim

import (
	"context"
	"testing"

	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

func benchOutageConfig() OutageConfig {
	return OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    1,
		Seed:      1,
		Workers:   1,
	}
}

// TestOutageTrialZeroAllocs is the allocation-regression gate for the
// Monte Carlo per-block path: the per-trial stream reseed, one fading draw,
// and a sum-rate LP and a feasibility probe per protocol must not allocate
// in steady state.
func TestOutageTrialZeroAllocs(t *testing.T) {
	cfg := benchOutageConfig()
	w, acc := newOutageWorker(cfg), newOutageTally(len(cfg.Protocols))
	trial := 0
	run := func() {
		if err := w.runTrial(trial, acc); err != nil {
			t.Fatal(err)
		}
		trial++
	}
	// Warm the evaluator workspaces.
	for trial < 3 {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("outage trial allocates %.1f/op, want 0", n)
	}
}

// TestOutageWorkerMatchesRunOutage cross-checks that a run within one chunk
// is exactly the trial-by-trial replay of its streams on one worker.
func TestOutageWorkerMatchesRunOutage(t *testing.T) {
	cfg := benchOutageConfig()
	cfg.Trials = 50
	res, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, acc := newOutageWorker(cfg), newOutageTally(len(cfg.Protocols))
	for i := 0; i < cfg.Trials; i++ {
		if err := w.runTrial(i, acc); err != nil {
			t.Fatal(err)
		}
	}
	for pi, proto := range cfg.Protocols {
		st := res.ByProtocol[proto]
		want := acc.sum[pi] / float64(cfg.Trials)
		wantOut := float64(acc.outages[pi]) / float64(cfg.Trials)
		if st.MeanOptSumRate != want || st.OutageProb != wantOut {
			t.Errorf("%v: RunOutage (%g, %g) vs worker replay (%g, %g)",
				proto, st.MeanOptSumRate, st.OutageProb, want, wantOut)
		}
	}
}

// BenchmarkOutageTrial measures one fading block across three protocols
// (the steady-state Monte Carlo kernel including the per-trial reseed,
// excluding worker setup).
func BenchmarkOutageTrial(b *testing.B) {
	cfg := benchOutageConfig()
	w, acc := newOutageWorker(cfg), newOutageTally(len(cfg.Protocols))
	if err := w.runTrial(0, acc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.runTrial(i, acc); err != nil {
			b.Fatal(err)
		}
	}
}
