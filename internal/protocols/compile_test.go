package protocols

import (
	"errors"
	"math"
	"testing"

	"bicoop/internal/channel"
	"bicoop/internal/xmath"
)

// testScenario returns the paper's Fig 4 evaluation point at the given power
// (dB): Gab = -7 dB, Gar = 0 dB, Gbr = 5 dB.
func testScenario(pDB float64) Scenario {
	return NewScenarioDB(pDB, -7, 0, 5)
}

func mustInfos(t *testing.T, s Scenario) LinkInfos {
	t.Helper()
	li, err := LinkInfosFromScenario(s)
	if err != nil {
		t.Fatalf("LinkInfosFromScenario: %v", err)
	}
	return li
}

func mustCompile(t *testing.T, p Protocol, b Bound, s Scenario) Spec {
	t.Helper()
	spec, err := CompileGaussian(p, b, s)
	if err != nil {
		t.Fatalf("CompileGaussian(%v, %v): %v", p, b, err)
	}
	return spec
}

func TestProtocolStringsAndPhases(t *testing.T) {
	tests := []struct {
		p          Protocol
		wantName   string
		wantPhases int
	}{
		{DT, "DT", 2},
		{Naive4, "Naive4", 4},
		{MABC, "MABC", 2},
		{TDBC, "TDBC", 3},
		{HBC, "HBC", 4},
		{Protocol(0), "Protocol(0)", 0},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.wantName {
			t.Errorf("String = %q, want %q", got, tt.wantName)
		}
		if got := tt.p.Phases(); got != tt.wantPhases {
			t.Errorf("%v.Phases = %d, want %d", tt.p, got, tt.wantPhases)
		}
	}
	if got := BoundInner.String(); got != "inner" {
		t.Errorf("BoundInner = %q", got)
	}
	if got := BoundOuter.String(); got != "outer" {
		t.Errorf("BoundOuter = %q", got)
	}
	if got := Bound(9).String(); got != "Bound(9)" {
		t.Errorf("Bound(9) = %q", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	tests := []struct {
		name string
		s    Scenario
		ok   bool
	}{
		{name: "good", s: testScenario(10), ok: true},
		{name: "zero power", s: Scenario{P: 0, G: channel.Gains{AB: 1, AR: 1, BR: 1}}, ok: false},
		{name: "bad gains", s: Scenario{P: 1, G: channel.Gains{}}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate()
			if tt.ok != (err == nil) {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestLinkInfosFromScenarioClosedForms(t *testing.T) {
	s := testScenario(10) // P = 10, Gab = 10^-0.7, Gar = 1, Gbr = 10^0.5
	li := mustInfos(t, s)
	p := s.P
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"AtoR", li.AtoR, xmath.C(p * 1)},
		{"BtoR", li.BtoR, xmath.C(p * math.Pow(10, 0.5))},
		{"AtoB", li.AtoB, xmath.C(p * math.Pow(10, -0.7))},
		{"BtoA", li.BtoA, li.AtoB}, // reciprocity
		{"RtoA", li.RtoA, li.AtoR},
		{"RtoB", li.RtoB, li.BtoR},
		{"MACAGivenB", li.MACAGivenB, xmath.C(p * 1)},
		{"MACBGivenA", li.MACBGivenA, li.BtoR},
		{"MACSum", li.MACSum, xmath.C(p * (1 + math.Pow(10, 0.5)))},
		{"AtoRB", li.AtoRB, xmath.C(p * (1 + math.Pow(10, -0.7)))},
		{"BtoRA", li.BtoRA, xmath.C(p * (math.Pow(10, 0.5) + math.Pow(10, -0.7)))},
	}
	for _, c := range checks {
		if !xmath.ApproxEqual(c.got, c.want, 1e-12) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if err := li.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLinkInfosValidateNegative(t *testing.T) {
	li := mustInfos(t, testScenario(0))
	li.MACSum = -1
	if err := li.Validate(); err == nil {
		t.Error("negative term should fail validation")
	}
}

func TestCompileShapes(t *testing.T) {
	s := testScenario(10)
	tests := []struct {
		p        Protocol
		b        Bound
		wantCons int
		wantPh   int
		sumCons  int // how many constraints involve both rates
	}{
		{DT, BoundInner, 2, 2, 0},
		{DT, BoundOuter, 2, 2, 0},
		{Naive4, BoundInner, 4, 4, 0},
		{MABC, BoundInner, 5, 2, 1},
		{MABC, BoundOuter, 5, 2, 1},
		{TDBC, BoundInner, 4, 3, 0},
		{TDBC, BoundOuter, 5, 3, 1},
		{HBC, BoundInner, 5, 4, 1},
		{HBC, BoundOuter, 5, 4, 1},
	}
	for _, tt := range tests {
		spec := mustCompile(t, tt.p, tt.b, s)
		if len(spec.Cons) != tt.wantCons {
			t.Errorf("%v/%v: %d constraints, want %d", tt.p, tt.b, len(spec.Cons), tt.wantCons)
		}
		if spec.Phases != tt.wantPh {
			t.Errorf("%v/%v: %d phases, want %d", tt.p, tt.b, spec.Phases, tt.wantPh)
		}
		var both int
		for _, c := range spec.Cons {
			if c.CoefRa != 0 && c.CoefRb != 0 {
				both++
			}
			if len(c.PhaseCap) != spec.Phases {
				t.Errorf("%v/%v %q: PhaseCap has %d entries, want %d", tt.p, tt.b, c.Label, len(c.PhaseCap), spec.Phases)
			}
			if c.Label == "" {
				t.Errorf("%v/%v: unlabeled constraint", tt.p, tt.b)
			}
		}
		if both != tt.sumCons {
			t.Errorf("%v/%v: %d sum constraints, want %d", tt.p, tt.b, both, tt.sumCons)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	li := mustInfos(t, testScenario(0))
	if _, err := Compile(Protocol(42), BoundInner, li); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown protocol: err = %v", err)
	}
	if _, err := Compile(MABC, Bound(42), li); !errors.Is(err, ErrUnknownBound) {
		t.Errorf("unknown bound: err = %v", err)
	}
	bad := li
	bad.AtoR = -1
	if _, err := Compile(MABC, BoundInner, bad); err == nil {
		t.Error("invalid infos should error")
	}
	if _, err := CompileGaussian(MABC, BoundInner, Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}

func TestHeuristicFlag(t *testing.T) {
	s := testScenario(10)
	for _, p := range Protocols() {
		for _, b := range []Bound{BoundInner, BoundOuter} {
			spec := mustCompile(t, p, b, s)
			wantHeur := p == HBC && b == BoundOuter
			if spec.Heuristic != wantHeur {
				t.Errorf("%v/%v: Heuristic = %v, want %v", p, b, spec.Heuristic, wantHeur)
			}
		}
	}
	relaxed, err := HBCOuterRelaxed(s)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Heuristic {
		t.Error("HBCOuterRelaxed must not be marked heuristic: it is a valid bound")
	}
}

func TestMABCOuterNoRelayDecoding(t *testing.T) {
	s := testScenario(10)
	li := mustInfos(t, s)
	relaxed, err := MABCOuterNoRelayDecoding(li)
	if err != nil {
		t.Fatal(err)
	}
	if len(relaxed.Cons) != 4 {
		t.Fatalf("relaxed MABC has %d constraints, want 4", len(relaxed.Cons))
	}
	// The relaxed region must contain the capacity region.
	full := mustCompile(t, MABC, BoundInner, s)
	fullR, err := full.Region(RegionOptions{Angles: 61})
	if err != nil {
		t.Fatal(err)
	}
	relaxedR, err := relaxed.Region(RegionOptions{Angles: 61})
	if err != nil {
		t.Fatal(err)
	}
	if !fullR.SubsetOf(relaxedR, 1e-7) {
		t.Error("capacity region must be inside the no-decode outer bound")
	}
	bad := li
	bad.RtoA = -1
	if _, err := MABCOuterNoRelayDecoding(bad); err == nil {
		t.Error("invalid infos should error")
	}
}

func TestHBCOuterRelaxedContainsInner(t *testing.T) {
	e := NewEvaluator()
	for _, pdb := range []float64{0, 10} {
		s := testScenario(pdb)
		inner, err := e.Region(HBC, BoundInner, s, RegionOptions{Angles: 61})
		if err != nil {
			t.Fatal(err)
		}
		relaxedSpec, err := HBCOuterRelaxed(s)
		if err != nil {
			t.Fatal(err)
		}
		relaxed, err := relaxedSpec.Region(RegionOptions{Angles: 61})
		if err != nil {
			t.Fatal(err)
		}
		if !inner.SubsetOf(relaxed, 1e-7) {
			t.Errorf("P=%vdB: HBC inner escapes the relaxed outer bound", pdb)
		}
		// And the relaxed bound must contain the heuristic outer bound too
		// (relaxation can only grow the region).
		heur, err := e.Region(HBC, BoundOuter, s, RegionOptions{Angles: 61})
		if err != nil {
			t.Fatal(err)
		}
		if !heur.SubsetOf(relaxed, 1e-7) {
			t.Errorf("P=%vdB: heuristic HBC outer escapes the relaxed bound", pdb)
		}
	}
}

func TestHBCOuterRelaxedErrors(t *testing.T) {
	if _, err := HBCOuterRelaxed(Scenario{}); err == nil {
		t.Error("invalid scenario should error")
	}
}
