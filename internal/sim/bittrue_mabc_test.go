package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

func TestMABCComputeForwardBound(t *testing.T) {
	tests := []struct {
		name                 string
		epsMAC, epsRA, epsRB float64
		wantRate             float64
	}{
		{
			// Symmetric clean-ish links: cMAC = cBC = 0.8 -> R = 0.4.
			name: "symmetric", epsMAC: 0.2, epsRA: 0.2, epsRB: 0.2, wantRate: 0.4,
		},
		{
			// cMAC = 0.9, cBC = min(0.8, 0.6) = 0.6 -> d1 = 0.4, R = 0.36.
			name: "asymmetric", epsMAC: 0.1, epsRA: 0.2, epsRB: 0.4, wantRate: 0.36,
		},
		{name: "dead MAC", epsMAC: 1, epsRA: 0.1, epsRB: 0.1, wantRate: 0},
		{name: "dead broadcast", epsMAC: 0.1, epsRA: 1, epsRB: 0.1, wantRate: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rate, durations := MABCComputeForwardBound(tt.epsMAC, tt.epsRA, tt.epsRB)
			if !xmath.ApproxEqual(rate, tt.wantRate, 1e-12) {
				t.Errorf("rate = %v, want %v", rate, tt.wantRate)
			}
			if !xmath.ApproxEqual(xmath.Sum(durations), 1, 1e-12) {
				t.Errorf("durations %v do not sum to 1", durations)
			}
			if rate > 0 {
				// The bound is the equalizer of the two phase constraints.
				if !xmath.ApproxEqual(durations[0]*(1-tt.epsMAC), rate, 1e-12) {
					t.Errorf("MAC phase not tight: %v vs %v", durations[0]*(1-tt.epsMAC), rate)
				}
			}
		})
	}
}

func TestRunBitTrueMABCWaterfall(t *testing.T) {
	const epsMAC, epsRA, epsRB = 0.2, 0.15, 0.1
	bound, durations := MABCComputeForwardBound(epsMAC, epsRA, epsRB)
	run := func(scale float64) MABCBitTrueResult {
		t.Helper()
		res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
			EpsMAC: epsMAC, EpsRA: epsRA, EpsRB: epsRB,
			Rate:        bound * scale,
			Durations:   durations,
			BlockLength: 3000,
			Trials:      30,
			Seed:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	below := run(0.85)
	if below.SuccessProb < 0.95 {
		t.Errorf("85%% of bound: success %v (relay %d, terminal %d)",
			below.SuccessProb, below.RelayFailures, below.TerminalFailures)
	}
	if !below.SuccessCI.Contains(below.SuccessProb) {
		t.Error("CI excludes the point estimate")
	}
	above := run(1.15)
	if above.SuccessProb > 0.1 {
		t.Errorf("115%% of bound: success %v, want ~0", above.SuccessProb)
	}
	// At 115% both the MAC and the broadcast phases are overloaded (the
	// split equalized them at 100%), so the relay fails first.
	if above.RelayFailures == 0 {
		t.Error("expected relay failures above the bound")
	}
}

func TestRunBitTrueMABCDerivesDurations(t *testing.T) {
	res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
		EpsMAC: 0.1, EpsRA: 0.1, EpsRB: 0.1,
		Rate:        0.2, // well inside the 0.45 bound
		BlockLength: 2000,
		Trials:      15,
		Seed:        5,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 2 {
		t.Fatalf("durations = %v", res.Durations)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v for comfortable rate", res.SuccessProb)
	}
}

func TestRunBitTrueMABCValidation(t *testing.T) {
	good := MABCBitTrueConfig{
		EpsMAC: 0.1, EpsRA: 0.1, EpsRB: 0.1,
		Rate: 0.2, BlockLength: 500, Trials: 3, Seed: 1,
	}
	t.Run("bad eps", func(t *testing.T) {
		cfg := good
		cfg.EpsMAC = -0.5
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no block", func(t *testing.T) {
		cfg := good
		cfg.BlockLength = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no trials", func(t *testing.T) {
		cfg := good
		cfg.Trials = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); !errors.Is(err, ErrNoTrials) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("zero rate", func(t *testing.T) {
		cfg := good
		cfg.Rate = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad durations", func(t *testing.T) {
		cfg := good
		cfg.Durations = []float64{1}
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("rate too small for block", func(t *testing.T) {
		cfg := good
		cfg.Rate = 1e-9
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error for zero-length message")
		}
	})
}

func TestBitTrueMABCSharedGeneratorLinearity(t *testing.T) {
	// The compute-and-forward trick rests on Encode(wa) xor Encode(wb) ==
	// Encode(wa xor wb). A failing run here would mean the MAC abstraction
	// is unsound. Exercised end-to-end with a deterministic seed and a rate
	// just below the bound.
	bound, durations := MABCComputeForwardBound(0.3, 0.2, 0.25)
	res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
		EpsMAC: 0.3, EpsRA: 0.2, EpsRB: 0.25,
		Rate:        bound * 0.8,
		Durations:   durations,
		BlockLength: 2500,
		Trials:      20,
		Seed:        11,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v below expectation at 80%% of bound", res.SuccessProb)
	}
}

// TestBitTrueRejectsBadDurations pins the simulators' own duration check
// (the rule protocols.CheckDurations applies): negative, out-of-range,
// non-finite and miscounted durations fail with ErrBadDurations instead of
// panicking on a negative phase length or running with a block longer
// than BlockLength.
func TestBitTrueRejectsBadDurations(t *testing.T) {
	nan := math.NaN()
	for _, d := range [][]float64{{-0.2, 1.2}, {1.5, -0.5}, {0.6, 0.6}, {nan, 1}, {1}} {
		_, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
			EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1, Rate: 0.2, Durations: d,
			BlockLength: 200, Trials: 2, Seed: 1, Workers: 1,
		})
		if !errors.Is(err, protocols.ErrBadDurations) {
			t.Errorf("MABC durations %v: err %v, want ErrBadDurations", d, err)
		}
	}
	for _, d := range [][]float64{{-0.2, 0.6, 0.6}, {0.7, 0.7, -0.4}, {0.5, nan, 0.5}, {0.5, 0.5, math.Inf(1)}, {0.5, 0.5}} {
		_, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
			Net:   ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
			Rates: protocols.RatePair{Ra: 0.2, Rb: 0.2}, Durations: d,
			BlockLength: 200, Trials: 2, Seed: 1, Workers: 1,
		})
		if !errors.Is(err, protocols.ErrBadDurations) {
			t.Errorf("TDBC durations %v: err %v, want ErrBadDurations", d, err)
		}
	}
}
