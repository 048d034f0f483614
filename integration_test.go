package bicoop_test

// Cross-module integration tests: each test exercises a chain of packages
// end to end and pins two independent computation paths against each other.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bicoop"
	"bicoop/internal/dmc"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/stats"
	"bicoop/internal/xmath"
)

// TestLPDurationsDriveBitTrueSuccess closes the loop LP -> simulator: ask
// the TDBC inner bound for durations supporting a specific rate pair, hand
// exactly those durations to the bit-true simulator, and require reliable
// decoding.
func TestLPDurationsDriveBitTrueSuccess(t *testing.T) {
	net := sim.ErasureNetwork{EpsAR: 0.15, EpsBR: 0.1, EpsAB: 0.55}
	spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, net.LinkInfos())
	if err != nil {
		t.Fatal(err)
	}
	target := protocols.RatePair{Ra: 0.3, Rb: 0.2}
	durations, err := spec.DurationsFor(target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBitTrueTDBC(context.Background(), sim.BitTrueConfig{
		Net:         net,
		Rates:       target,
		Durations:   durations,
		BlockLength: 3000,
		Trials:      25,
		Seed:        9,
		Workers:     4, // pinned so results do not depend on GOMAXPROCS
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("LP-derived durations %v gave success %v at %+v", durations, res.SuccessProb, target)
	}
	// Wilson interval on the outcome must be consistent with near-certain
	// success.
	iv, err := stats.WilsonInterval(int(res.SuccessProb*25+0.5), 25, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0.7 {
		t.Errorf("success CI %+v too loose to certify the operating point", iv)
	}
}

// TestQuantizedDMCProtocolsApproachBinaryInputGaussian pins the DMC
// evaluation path against the Gaussian path: protocol bounds computed from
// finely quantized BPSK-AWGN link channels must approach (from below) the
// bounds computed from binary-input link capacities, and stay below the
// Gaussian-input closed forms.
func TestQuantizedDMCProtocolsApproachBinaryInputGaussian(t *testing.T) {
	// Low SNRs keep the BPSK constraint mild.
	const snrR, snrD = 0.4, 0.1
	qr, err := dmc.QuantizeAWGN(snrR, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	qd, err := dmc.QuantizeAWGN(snrD, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := protocols.DMCNetwork{
		AtoR: qr, BtoR: qr, AtoB: qd, BtoA: qd, RtoA: qr, RtoB: qr,
		MACatR: dmc.Product(qr, qr), NxA: 2, NxB: 2,
	}
	li, err := protocols.LinkInfosFromDMC(n, protocols.Inputs{
		A: prob.NewUniform(2), B: prob.NewUniform(2), R: prob.NewUniform(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, li)
	if err != nil {
		t.Fatal(err)
	}
	dmcSum, err := spec.MaxSumRate()
	if err != nil {
		t.Fatal(err)
	}
	// Gaussian comparator: same SNR pattern on a real AWGN channel has
	// per-link capacity 0.5*C(snr).
	gauss := protocols.LinkInfos{
		AtoR: 0.5 * xmath.C(snrR), BtoR: 0.5 * xmath.C(snrR),
		AtoB: 0.5 * xmath.C(snrD), BtoA: 0.5 * xmath.C(snrD),
		RtoA: 0.5 * xmath.C(snrR), RtoB: 0.5 * xmath.C(snrR),
		MACAGivenB: 0.5 * xmath.C(snrR), MACBGivenA: 0.5 * xmath.C(snrR),
		MACSum: 0.5 * xmath.C(2*snrR),
		AtoRB:  0.5 * xmath.C(snrR+snrD), BtoRA: 0.5 * xmath.C(snrR+snrD),
	}
	gaussSpec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, gauss)
	if err != nil {
		t.Fatal(err)
	}
	gaussSum, err := gaussSpec.MaxSumRate()
	if err != nil {
		t.Fatal(err)
	}
	if dmcSum.Objective > gaussSum.Objective+1e-9 {
		t.Errorf("quantized-BPSK sum %v exceeds Gaussian-input sum %v", dmcSum.Objective, gaussSum.Objective)
	}
	if dmcSum.Objective < 0.85*gaussSum.Objective {
		t.Errorf("quantized-BPSK sum %v too far below Gaussian %v at low SNR", dmcSum.Objective, gaussSum.Objective)
	}
}

// TestEmpiricalMIAgreesWithProtocolTerm ties dmc sampling to the bound
// evaluation: the empirical MI of a BSC relay link must reproduce the AtoR
// term the BSC network evaluator feeds the theorems.
func TestEmpiricalMIAgreesWithProtocolTerm(t *testing.T) {
	const eps = 0.12
	n := protocols.SymmetricBSCNetwork(eps, 0.3)
	li, err := protocols.LinkInfosFromDMC(n, protocols.Inputs{
		A: prob.NewUniform(2), B: prob.NewUniform(2), R: prob.NewUniform(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	got, bias, err := dmc.EmpiricalMI(dmc.BSC(eps), prob.NewUniform(2), 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-bias-li.AtoR) > 0.01 {
		t.Errorf("empirical MI %v (bias %v) vs protocol term %v", got, bias, li.AtoR)
	}
}

// TestFacadeAgreesWithInternals pins the public API against the internal
// packages on the Fig 4 scenario.
func TestFacadeAgreesWithInternals(t *testing.T) {
	pub := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
	intl := protocols.NewScenarioDB(10, -7, 0, 5)
	eng, ev := bicoop.NewEngine(), protocols.NewEvaluator()
	for _, pp := range bicoop.AllProtocols() {
		pubRes, err := eng.SumRate(pp, bicoop.Inner, pub)
		if err != nil {
			t.Fatal(err)
		}
		var ip protocols.Protocol
		switch pp {
		case bicoop.DT:
			ip = protocols.DT
		case bicoop.Naive4:
			ip = protocols.Naive4
		case bicoop.MABC:
			ip = protocols.MABC
		case bicoop.TDBC:
			ip = protocols.TDBC
		case bicoop.HBC:
			ip = protocols.HBC
		}
		intRes, err := ev.WeightedRate(ip, protocols.BoundInner, intl, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(pubRes.Sum, intRes.Objective, 1e-12) {
			t.Errorf("%v: facade %v vs internal %v", pp, pubRes.Sum, intRes.Objective)
		}
	}
}

// TestOutageSimulatorConvergesToAnalyticInDegenerateFading checks the
// Monte Carlo chain against a known limit: as the fading variance is
// reported per-block but gains are resampled every block, the mean adaptive
// sum rate over many blocks is stable across disjoint seeds (law of large
// numbers), within a few percent.
func TestOutageSimulatorConvergesToAnalyticInDegenerateFading(t *testing.T) {
	cfg := sim.OutageConfig{
		Mean:      protocols.NewScenarioDB(10, -7, 0, 5).G,
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC},
		Trials:    3000,
		Seed:      1,
	}
	r1, err := sim.RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	r2, err := sim.RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1 := r1.ByProtocol[protocols.MABC].MeanOptSumRate
	m2 := r2.ByProtocol[protocols.MABC].MeanOptSumRate
	if math.Abs(m1-m2)/m1 > 0.05 {
		t.Errorf("disjoint-seed means diverge: %v vs %v", m1, m2)
	}
}
