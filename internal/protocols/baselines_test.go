package protocols

import (
	"math"
	"testing"

	"bicoop/internal/xmath"
)

func TestAFSumRate(t *testing.T) {
	s := testScenario(10)
	res, err := AFSumRate(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum <= 0 {
		t.Fatalf("AF sum rate %v", res.Sum)
	}
	if !xmath.ApproxEqual(res.Sum, res.Rates.Sum(), 1e-12) {
		t.Errorf("sum %v != Ra+Rb %v", res.Sum, res.Rates.Sum())
	}
	if len(res.Durations) != 2 || res.Durations[0] != 0.5 {
		t.Errorf("AF durations = %v, want half/half", res.Durations)
	}
	// AF never decodes at the relay, so it cannot beat the full-duplex
	// ceiling, and amplified noise keeps it below the MABC DF capacity at
	// moderate SNR with these asymmetric gains.
	mabc, err := NewEvaluator().SumRate(MABC, BoundInner, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum >= mabc {
		t.Errorf("AF %v should lose to MABC DF %v at 10 dB", res.Sum, mabc)
	}
	if _, err := AFSumRate(Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}

func TestAFMonotoneInPower(t *testing.T) {
	prev := 0.0
	for _, pdb := range []float64{-5, 0, 5, 10, 15, 20} {
		res, err := AFSumRate(testScenario(pdb))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sum < prev-1e-12 {
			t.Fatalf("AF sum rate decreased with power at %v dB", pdb)
		}
		prev = res.Sum
	}
}

func TestAFNoiseAmplificationHurtsAtLowSNR(t *testing.T) {
	// The classic AF-vs-DF story: at low SNR the relay amplifies mostly
	// noise, so DF (MABC) wins by a wide factor; at high SNR AF closes in.
	low := testScenario(-5)
	high := testScenario(20)
	ratio := func(s Scenario) float64 {
		t.Helper()
		af, err := AFSumRate(s)
		if err != nil {
			t.Fatal(err)
		}
		df, err := NewEvaluator().SumRate(MABC, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		return af.Sum / df
	}
	rLow, rHigh := ratio(low), ratio(high)
	if rLow >= rHigh {
		t.Errorf("AF/DF ratio should improve with SNR: %v at -5 dB vs %v at 20 dB", rLow, rHigh)
	}
	if rLow > 0.8 {
		t.Errorf("AF should be badly noise-limited at -5 dB, got ratio %v", rLow)
	}
}

func TestAFRegionConstraints(t *testing.T) {
	rp, err := AFRegionConstraints(testScenario(10))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Ra <= 0 || rp.Rb <= 0 {
		t.Errorf("AF caps %+v must be positive", rp)
	}
	// Both directions ride the same product channel Gar·Gbr; the asymmetry
	// comes from the amplified relay noise, which arrives at each terminal
	// through its own link. With Gbr > Gar, terminal b receives more
	// amplified noise than terminal a, so the a->b message rate cap (Ra,
	// decoded at b) is the smaller one.
	if rp.Ra >= rp.Rb {
		t.Errorf("with Gbr > Gar expected Ra cap %v < Rb cap %v", rp.Ra, rp.Rb)
	}
	if _, err := AFRegionConstraints(Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}

func TestFullDuplexCeiling(t *testing.T) {
	// Every half-duplex protocol must sit at or below the full-duplex DF
	// bound, and the penalty ratio must be in (0, 1].
	for _, pdb := range []float64{-5, 0, 5, 10, 15} {
		s := testScenario(pdb)
		fd, err := FullDuplexSumRate(s)
		if err != nil {
			t.Fatal(err)
		}
		if fd.Sum <= 0 {
			t.Fatalf("degenerate full-duplex sum at %v dB", pdb)
		}
		for _, p := range Protocols() {
			pen, err := HalfDuplexPenalty(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if pen <= 0 || pen > 1+1e-9 {
				t.Errorf("%v at %v dB: half-duplex retains %v of full duplex (must be in (0,1])", p, pdb, pen)
			}
		}
		// HBC is the best half-duplex protocol here, so it has the mildest
		// penalty among the relay protocols.
		penHBC, err := HalfDuplexPenalty(HBC, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{MABC, TDBC} {
			pen, err := HalfDuplexPenalty(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if pen > penHBC+1e-9 {
				t.Errorf("%v penalty %v better than HBC %v at %v dB", p, pen, penHBC, pdb)
			}
		}
	}
}

func TestFullDuplexRatesConsistent(t *testing.T) {
	s := testScenario(10)
	fd, err := FullDuplexSumRate(s)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Rates.Sum() > fd.Sum+1e-9 {
		t.Errorf("rates %v exceed reported sum %v", fd.Rates, fd.Sum)
	}
	li := mustInfos(t, s)
	if fd.Sum > li.MACSum+1e-9 {
		t.Errorf("full-duplex sum %v exceeds MAC cut %v", fd.Sum, li.MACSum)
	}
	if fd.Rates.Ra > math.Min(li.MACAGivenB, li.RtoB)+1e-9 {
		t.Errorf("Ra %v exceeds its min-cut", fd.Rates.Ra)
	}
	if _, err := FullDuplexSumRate(Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
	if _, err := HalfDuplexPenalty(MABC, Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}
