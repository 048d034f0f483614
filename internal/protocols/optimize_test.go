package protocols

import (
	"math"
	"math/rand"
	"testing"

	"bicoop/internal/region"
	"bicoop/internal/xmath"
)

func TestDTClosedForm(t *testing.T) {
	// DT sum rate equals C(P·Gab) exactly: the two phases share one link.
	for _, pdb := range []float64{-10, 0, 10, 20} {
		s := testScenario(pdb)
		res, err := NewEvaluator().WeightedRate(DT, BoundInner, s, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := xmath.C(s.P * s.G.AB)
		if !xmath.ApproxEqual(res.Objective, want, 1e-9) {
			t.Errorf("P=%vdB: DT sum = %v, want %v", pdb, res.Objective, want)
		}
		// Durations sum to one.
		if !xmath.ApproxEqual(xmath.Sum(res.Durations), 1, 1e-9) {
			t.Errorf("durations %v do not sum to 1", res.Durations)
		}
	}
}

func TestNaive4ClosedForm(t *testing.T) {
	// Naive 4-phase sum rate equals the harmonic-mean rate of the two hops:
	// Car·Cbr/(Car+Cbr) (each flow crosses both links; time shares out).
	for _, pdb := range []float64{0, 10} {
		s := testScenario(pdb)
		res, err := NewEvaluator().SumRate(Naive4, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		car := xmath.C(s.P * s.G.AR)
		cbr := xmath.C(s.P * s.G.BR)
		want := car * cbr / (car + cbr)
		if !xmath.ApproxEqual(res, want, 1e-9) {
			t.Errorf("P=%vdB: Naive4 sum = %v, want %v", pdb, res, want)
		}
	}
}

func TestMABCSumRateAgainstGoldenSection(t *testing.T) {
	// Cross-validate the LP against a 1-D golden-section search over Δ1
	// (MABC has two phases, so the LP reduces to one free variable).
	for _, pdb := range []float64{-5, 0, 5, 10, 15} {
		s := testScenario(pdb)
		res, err := NewEvaluator().SumRate(MABC, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		car := xmath.C(s.P * s.G.AR)
		cbr := xmath.C(s.P * s.G.BR)
		cmac := xmath.C(s.P * (s.G.AR + s.G.BR))
		sumAt := func(d1 float64) float64 {
			d2 := 1 - d1
			ra := math.Min(d1*car, d2*cbr)
			rb := math.Min(d1*cbr, d2*car)
			return math.Min(ra+rb, d1*cmac)
		}
		_, best, err := xmath.GoldenMax(sumAt, 0, 1, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(res, best, 1e-6) {
			t.Errorf("P=%vdB: LP %v vs golden %v", pdb, res, best)
		}
	}
}

func TestTDBCSumRateAgainstGridSearch(t *testing.T) {
	// TDBC has two free durations; validate the LP against a fine 2-D grid.
	s := testScenario(10)
	res, err := NewEvaluator().SumRate(TDBC, BoundInner, s)
	if err != nil {
		t.Fatal(err)
	}
	car := xmath.C(s.P * s.G.AR)
	cbr := xmath.C(s.P * s.G.BR)
	cab := xmath.C(s.P * s.G.AB)
	best := 0.0
	const steps = 400
	for i := 0; i <= steps; i++ {
		for j := 0; i+j <= steps; j++ {
			d1 := float64(i) / steps
			d2 := float64(j) / steps
			d3 := 1 - d1 - d2
			ra := math.Min(d1*car, d1*cab+d3*cbr)
			rb := math.Min(d2*cbr, d2*cab+d3*car)
			if v := ra + rb; v > best {
				best = v
			}
		}
	}
	if res < best-1e-6 {
		t.Errorf("LP sum %v below grid %v", res, best)
	}
	if res > best+0.01 {
		t.Errorf("LP sum %v implausibly above grid %v (grid step too coarse?)", res, best)
	}
}

func TestFeasibleMatchesRegion(t *testing.T) {
	s := testScenario(10)
	for _, p := range Protocols() {
		spec := mustCompile(t, p, BoundInner, s)
		pg, err := spec.Region(RegionOptions{Angles: 121})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := spec.MaxSumRate()
		if err != nil {
			t.Fatal(err)
		}
		// The optimal point is feasible; scaled-up versions are not.
		feasible, err := spec.Feasible(opt.Rates)
		if err != nil {
			t.Fatal(err)
		}
		if !feasible {
			t.Errorf("%v: optimal point not feasible", p)
		}
		blown := RatePair{Ra: opt.Rates.Ra*1.05 + 0.01, Rb: opt.Rates.Rb*1.05 + 0.01}
		feasible, err = spec.Feasible(blown)
		if err != nil {
			t.Fatal(err)
		}
		if feasible {
			t.Errorf("%v: inflated point should be infeasible", p)
		}
		// Random points: region membership and LP feasibility must agree
		// away from the boundary.
		r := rand.New(rand.NewSource(33))
		maxRa, _ := pg.Support(1, 0)
		maxRb, _ := pg.Support(0, 1)
		for k := 0; k < 60; k++ {
			pt := RatePair{Ra: r.Float64() * maxRa * 1.3, Rb: r.Float64() * maxRb * 1.3}
			inRegion := pg.Contains(regionPoint(pt), 1e-9)
			feas, err := spec.Feasible(pt)
			if err != nil {
				t.Fatal(err)
			}
			if inRegion != feas {
				// Tolerate disagreement only within a thin boundary band.
				inner := pg.Contains(regionPoint(RatePair{pt.Ra * 1.001, pt.Rb * 1.001}), 1e-9)
				outer := pg.Contains(regionPoint(RatePair{pt.Ra * 0.999, pt.Rb * 0.999}), 1e-9)
				if inner == outer {
					t.Errorf("%v: region=%v feasible=%v at %+v (not boundary)", p, inRegion, feas, pt)
				}
			}
		}
		// Negative rates are never feasible.
		if f, _ := spec.Feasible(RatePair{Ra: -0.1, Rb: 0}); f {
			t.Errorf("%v: negative rate feasible", p)
		}
	}
}

func TestRegionContainsFixedDurationRegions(t *testing.T) {
	s := testScenario(5)
	r := rand.New(rand.NewSource(7))
	for _, p := range Protocols() {
		spec := mustCompile(t, p, BoundInner, s)
		full, err := spec.Region(RegionOptions{Angles: 181})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			d := randomDurations(spec.Phases, r)
			fixed, err := spec.FixedDurationRegion(d)
			if err != nil {
				t.Fatal(err)
			}
			if !fixed.SubsetOf(full, 1e-6) {
				t.Errorf("%v: fixed-duration region escapes the optimized region (d=%v)", p, d)
			}
		}
		// Equal-duration sum rate never exceeds the optimal sum rate.
		eq, err := spec.SumRateAt(spec.EqualDurations())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := spec.MaxSumRate()
		if err != nil {
			t.Fatal(err)
		}
		if eq > opt.Objective+1e-9 {
			t.Errorf("%v: equal-duration sum %v exceeds optimum %v", p, eq, opt.Objective)
		}
	}
}

func randomDurations(n int, r *rand.Rand) []float64 {
	d := make([]float64, n)
	var sum float64
	for i := range d {
		d[i] = r.Float64() + 1e-3
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

func TestFixedDurationRegionErrors(t *testing.T) {
	spec := mustCompile(t, TDBC, BoundInner, testScenario(5))
	if _, err := spec.FixedDurationRegion([]float64{0.5, 0.5}); err == nil {
		t.Error("wrong duration count should error")
	}
	if _, err := spec.FixedDurationRegion([]float64{0.5, 0.6, 0.2}); err == nil {
		t.Error("durations not summing to 1 should error")
	}
	if _, err := spec.FixedDurationRegion([]float64{-0.2, 0.6, 0.6}); err == nil {
		t.Error("negative duration should error")
	}
}

func TestDurationsFor(t *testing.T) {
	s := testScenario(10)
	for _, p := range Protocols() {
		spec := mustCompile(t, p, BoundInner, s)
		opt, err := spec.MaxSumRate()
		if err != nil {
			t.Fatal(err)
		}
		// A slightly retracted optimum is feasible; DurationsFor must find
		// durations that actually support it.
		target := RatePair{Ra: opt.Rates.Ra * 0.95, Rb: opt.Rates.Rb * 0.95}
		d, err := spec.DurationsFor(target)
		if err != nil {
			t.Fatalf("%v: DurationsFor: %v", p, err)
		}
		if !xmath.ApproxEqual(xmath.Sum(d), 1, 1e-7) {
			t.Errorf("%v: durations %v do not sum to 1", p, d)
		}
		pg, err := spec.FixedDurationRegion(d)
		if err != nil {
			t.Fatal(err)
		}
		if !pg.Contains(regionPoint(target), 1e-7) {
			t.Errorf("%v: returned durations do not support the target", p)
		}
		// An infeasible pair errors.
		blown := RatePair{Ra: opt.Rates.Ra + 1, Rb: opt.Rates.Rb + 1}
		if _, err := spec.DurationsFor(blown); err == nil {
			t.Errorf("%v: infeasible pair should error", p)
		}
		// Negative rates error.
		if _, err := spec.DurationsFor(RatePair{Ra: -1}); err == nil {
			t.Errorf("%v: negative rates should error", p)
		}
	}
}

func TestMaxWeightedRateErrors(t *testing.T) {
	spec := mustCompile(t, MABC, BoundInner, testScenario(5))
	if _, err := spec.MaxWeightedRate(-1, 1); err == nil {
		t.Error("negative weight should error")
	}
}

func TestRegionSymmetryUnderSwap(t *testing.T) {
	// Swapping the roles of a and b must reflect every region across the
	// diagonal.
	s := testScenario(10)
	sw := s.Swap()
	e := NewEvaluator()
	for _, p := range Protocols() {
		for _, b := range []Bound{BoundInner, BoundOuter} {
			r1, err := e.Region(p, b, s, RegionOptions{Angles: 91})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := e.Region(p, b, sw, RegionOptions{Angles: 91})
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Swap().SubsetOf(r2, 1e-6) || !r2.SubsetOf(r1.Swap(), 1e-6) {
				t.Errorf("%v/%v: region not symmetric under terminal swap", p, b)
			}
		}
	}
}

func TestRegionMonotoneInPower(t *testing.T) {
	// More power can only grow every bound's region.
	g := testScenario(0).G
	var prev = make(map[Protocol]float64)
	e := NewEvaluator()
	for _, pdb := range []float64{-5, 0, 5, 10, 15} {
		s := Scenario{P: xmath.FromDB(pdb), G: g}
		for _, p := range Protocols() {
			res, err := e.SumRate(p, BoundInner, s)
			if err != nil {
				t.Fatal(err)
			}
			if res < prev[p]-1e-9 {
				t.Errorf("%v: sum rate decreased with power at %vdB: %v -> %v", p, pdb, prev[p], res)
			}
			prev[p] = res
		}
	}
}

func regionPoint(r RatePair) region.Point {
	return region.Point{Ra: r.Ra, Rb: r.Rb}
}
