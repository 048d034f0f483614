package main

// oracle.go — seed-independent correctness checks. Each holds for every
// input the generators can produce, so a failure means the program's output
// is wrong, never that the seed was unlucky.

import (
	"fmt"
	"math"

	"bicoop"
	"bicoop/internal/protocols"
)

// oracleTol is the agreement the analytic checks require.
const oracleTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= oracleTol*max(1, math.Abs(a), math.Abs(b))
}

// atMost reports a ≤ b up to the tolerance.
func atMost(a, b float64) bool { return a <= b+oracleTol*max(1, math.Abs(a), math.Abs(b)) }

func internalProto(p bicoop.Protocol) protocols.Protocol {
	switch p {
	case bicoop.DT:
		return protocols.DT
	case bicoop.Naive4:
		return protocols.Naive4
	case bicoop.MABC:
		return protocols.MABC
	case bicoop.TDBC:
		return protocols.TDBC
	default:
		return protocols.HBC
	}
}

func internalBound(b bicoop.Bound) protocols.Bound {
	if b == bicoop.Outer {
		return protocols.BoundOuter
	}
	return protocols.BoundInner
}

func internalScenario(s bicoop.Scenario) protocols.Scenario {
	return protocols.NewScenarioDB(s.PowerDB, s.GabDB, s.GarDB, s.GbrDB)
}

// coldSumRate is the reference optimum: a fresh compile of the bound and a
// one-shot cold LP, sharing no evaluator, pool or warm state with the path
// under test.
func coldSumRate(p bicoop.Protocol, b bicoop.Bound, s bicoop.Scenario) (float64, error) {
	spec, err := protocols.CompileGaussian(internalProto(p), internalBound(b), internalScenario(s))
	if err != nil {
		return 0, err
	}
	opt, err := spec.MaxSumRate()
	if err != nil {
		return 0, err
	}
	return opt.Objective, nil
}

// protoIndex is a protocol's position in bicoop.AllProtocols order.
func protoIndex(p bicoop.Protocol) int { return int(p - bicoop.DT) }

// checkDominance verifies HBC ≥ max(MABC, TDBC) for one scenario's sum
// rates, given in AllProtocols order: HBC contains both as special cases.
func checkDominance(sums []float64) error {
	hbc := sums[protoIndex(bicoop.HBC)]
	mabc, tdbc := sums[protoIndex(bicoop.MABC)], sums[protoIndex(bicoop.TDBC)]
	if !atMost(mabc, hbc) || !atMost(tdbc, hbc) {
		return fmt.Errorf("%w: HBC %.12g below MABC %.12g or TDBC %.12g", errOracle, hbc, mabc, tdbc)
	}
	return nil
}

// checkBounds verifies inner ≤ outer for every protocol and MABC inner =
// outer (Theorem 2: the MABC bounds are tight), for one scenario's sum
// rates in AllProtocols order.
func checkBounds(inner, outer []float64) error {
	for k, p := range bicoop.AllProtocols() {
		if !atMost(inner[k], outer[k]) {
			return fmt.Errorf("%w: %v inner %.12g above outer %.12g", errOracle, p, inner[k], outer[k])
		}
	}
	m := protoIndex(bicoop.MABC)
	if !near(inner[m], outer[m]) {
		return fmt.Errorf("%w: MABC inner %.12g != outer %.12g", errOracle, inner[m], outer[m])
	}
	return nil
}

// checkCold compares a reported sum rate with the cold reference.
func checkCold(p bicoop.Protocol, b bicoop.Bound, s bicoop.Scenario, got float64) error {
	want, err := coldSumRate(p, b, s)
	if err != nil {
		return err
	}
	if !near(got, want) {
		return fmt.Errorf("%w: %v %v at %+v: sum %.15g, cold reference %.15g", errOracle, p, b, s, got, want)
	}
	return nil
}

// checkWaterfall verifies one bit-true spec's outcome: well below the bound
// (scale 0.9) almost every block decodes, well above it (1.1) almost none
// does, and every requested trial ran.
func checkWaterfall(pt waterfallPoint, r bicoop.SimResult) error {
	if r.BitTrue == nil || r.Trials != pt.trials {
		return fmt.Errorf("%w: %+v: got %d trials, want %d", errOracle, pt, r.Trials, pt.trials)
	}
	p := r.BitTrue.SuccessProb
	switch {
	case pt.scale < 1 && p < 0.9:
		return fmt.Errorf("%w: %+v: success %.3f below 0.9 under the bound", errOracle, pt, p)
	case pt.scale > 1 && p > 0.1:
		return fmt.Errorf("%w: %+v: success %.3f above 0.1 beyond the bound", errOracle, pt, p)
	}
	return nil
}
