package protocols

// Structural validation of the paper's protocol-nesting argument: "the
// optimal sum rate of the HBC protocol is always greater than or equal to
// those of the other protocols since the MABC and TDBC protocols are
// special cases of the HBC protocol". These tests verify the embedding at
// the constraint level, not just the optimum: pinning the right HBC phase
// durations to zero reproduces each special case's region exactly.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bicoop/internal/channel"
	"bicoop/internal/xmath"
)

// embedTDBC maps TDBC durations (d1, d2, d3) to HBC durations: HBC phases
// 1, 2, 4 are TDBC phases 1, 2, 3; HBC's MAC phase 3 gets zero.
func embedTDBC(d []float64) []float64 {
	return []float64{d[0], d[1], 0, d[2]}
}

// embedMABC maps MABC durations (d1, d2) to HBC durations: HBC phase 3 is
// the MAC phase and phase 4 the broadcast; phases 1 and 2 get zero.
func embedMABC(d []float64) []float64 {
	return []float64{0, 0, d[0], d[1]}
}

func TestTDBCEmbedsInHBC(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, pdb := range []float64{0, 10} {
		s := testScenario(pdb)
		tdbc := mustCompile(t, TDBC, BoundInner, s)
		hbc := mustCompile(t, HBC, BoundInner, s)
		for trial := 0; trial < 15; trial++ {
			d := randomDurations(3, r)
			tdbcRegion, err := tdbc.FixedDurationRegion(d)
			if err != nil {
				t.Fatal(err)
			}
			hbcRegion, err := hbc.FixedDurationRegion(embedTDBC(d))
			if err != nil {
				t.Fatal(err)
			}
			// The HBC region at the embedded durations must contain the
			// TDBC region (HBC has no sum-rate constraint active when
			// phase 3 is off? it does: D1·AtoR + D2·BtoR — which TDBC's
			// individual constraints imply, so containment still holds).
			if !tdbcRegion.SubsetOf(hbcRegion, 1e-7) {
				t.Fatalf("P=%v trial %d: TDBC region escapes embedded HBC region (d=%v)", pdb, trial, d)
			}
		}
	}
}

func TestMABCEmbedsInHBC(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, pdb := range []float64{0, 10} {
		s := testScenario(pdb)
		mabc := mustCompile(t, MABC, BoundInner, s)
		hbc := mustCompile(t, HBC, BoundInner, s)
		for trial := 0; trial < 15; trial++ {
			d := randomDurations(2, r)
			mabcRegion, err := mabc.FixedDurationRegion(d)
			if err != nil {
				t.Fatal(err)
			}
			hbcRegion, err := hbc.FixedDurationRegion(embedMABC(d))
			if err != nil {
				t.Fatal(err)
			}
			if !mabcRegion.SubsetOf(hbcRegion, 1e-7) {
				t.Fatalf("P=%v trial %d: MABC region escapes embedded HBC region (d=%v)", pdb, trial, d)
			}
			// And exactly: with phases 1-2 off, HBC's constraints reduce to
			// MABC's, so the regions coincide.
			if !hbcRegion.SubsetOf(mabcRegion, 1e-7) {
				t.Fatalf("P=%v trial %d: embedded HBC region exceeds MABC region (d=%v) — embedding should be exact", pdb, trial, d)
			}
		}
	}
}

func TestHBCOptimalSumRateViaEmbeddings(t *testing.T) {
	// The LP over all HBC durations must weakly dominate both embeddings'
	// optima — the paper's nesting argument as an LP identity.
	for _, pdb := range []float64{-5, 0, 5, 10, 15} {
		s := testScenario(pdb)
		hbc, err := NewEvaluator().SumRate(HBC, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{MABC, TDBC} {
			sub, err := NewEvaluator().WeightedRate(p, BoundInner, s, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if hbc < sub.Objective-1e-9 {
				t.Errorf("P=%v: HBC %v below %v %v", pdb, hbc, p, sub.Objective)
			}
			// Verify the embedded durations actually achieve the special
			// case's optimum inside HBC.
			var embedded []float64
			if p == MABC {
				embedded = embedMABC(sub.Durations)
			} else {
				embedded = embedTDBC(sub.Durations)
			}
			hbcSpec := mustCompile(t, HBC, BoundInner, s)
			got, err := hbcSpec.SumRateAt(embedded)
			if err != nil {
				t.Fatal(err)
			}
			if !xmath.ApproxEqual(got, sub.Objective, 1e-6) {
				t.Errorf("P=%v: HBC at embedded %v durations gives %v, want %v", pdb, p, got, sub.Objective)
			}
		}
	}
}

func TestGainMonotonicity(t *testing.T) {
	// Improving any link gain can only grow every inner bound.
	base := testScenario(10)
	e := NewEvaluator()
	for _, p := range Protocols() {
		baseSum, err := e.SumRate(p, BoundInner, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, boost := range []string{"ab", "ar", "br"} {
			s := base
			switch boost {
			case "ab":
				s.G.AB *= 2
			case "ar":
				s.G.AR *= 2
			case "br":
				s.G.BR *= 2
			}
			sum, err := e.SumRate(p, BoundInner, s)
			if err != nil {
				t.Fatal(err)
			}
			if sum < baseSum-1e-9 {
				t.Errorf("%v: doubling G%s reduced sum rate %v -> %v", p, boost, baseSum, sum)
			}
		}
	}
}

func TestSumRateScalesLogarithmically(t *testing.T) {
	// At high SNR every protocol's sum rate grows ~ linearly in P(dB); the
	// increment per 10 dB approaches a protocol-dependent multiplexing
	// constant. Sanity-check the growth is sub-linear in linear P and
	// super-constant in dB.
	e := NewEvaluator()
	for _, p := range []Protocol{MABC, TDBC, HBC} {
		s20, err := e.SumRate(p, BoundInner, testScenario(20))
		if err != nil {
			t.Fatal(err)
		}
		s30, err := e.SumRate(p, BoundInner, testScenario(30))
		if err != nil {
			t.Fatal(err)
		}
		inc := s30 - s20
		if inc <= 0.5 || inc >= 4 {
			t.Errorf("%v: 20->30 dB increment %v implausible (want ~1-3.3 bits)", p, inc)
		}
	}
}

func TestSumRateSwapInvariantProperty(t *testing.T) {
	// Sum rate is invariant under exchanging the roles of the terminals,
	// for every protocol and random scenarios.
	e := NewEvaluator()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Scenario{
			P: xmath.FromDB(-10 + 30*r.Float64()),
			G: channel.Gains{
				AB: xmath.FromDB(-12 + 8*r.Float64()),
				AR: xmath.FromDB(-5 + 15*r.Float64()),
				BR: xmath.FromDB(-5 + 15*r.Float64()),
			},
		}
		for _, p := range Protocols() {
			a, err1 := e.SumRate(p, BoundInner, s)
			b, err2 := e.SumRate(p, BoundInner, s.Swap())
			if err1 != nil || err2 != nil || !xmath.ApproxEqual(a, b, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
