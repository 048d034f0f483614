package bicoop_test

import (
	"context"
	"fmt"

	"bicoop"
)

// The paper's Fig 4 evaluation point: weak direct link, strong relay links.
var fig4Example = bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}

// ExampleEngine_SumRate computes the LP-optimal exchange rate of the MABC
// protocol — the quantity Theorem 2 characterizes exactly.
func ExampleEngine_SumRate() {
	eng := bicoop.NewEngine()
	res, err := eng.SumRate(bicoop.MABC, bicoop.Inner, fig4Example)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("MABC optimal sum rate: %.4f bits/use\n", res.Sum)
	fmt.Printf("phase split: %.3f MAC, %.3f broadcast\n", res.Durations[0], res.Durations[1])
	// Output:
	// MABC optimal sum rate: 3.3053 bits/use
	// phase split: 0.611 MAC, 0.389 broadcast
}

// ExampleEngine_Feasible asks whether a symmetric 1.5 bits/use exchange is
// within each protocol's achievable region.
func ExampleEngine_Feasible() {
	eng := bicoop.NewEngine()
	target := bicoop.RatePoint{Ra: 1.5, Rb: 1.5}
	for _, p := range []bicoop.Protocol{bicoop.DT, bicoop.MABC, bicoop.TDBC, bicoop.HBC} {
		ok, err := eng.Feasible(p, bicoop.Inner, fig4Example, target)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-5s %v\n", p, ok)
	}
	// Output:
	// DT    false
	// MABC  true
	// TDBC  false
	// HBC   true
}

// ExampleRelayPlacement derives a scenario from relay geometry: the paper's
// cellular picture with the relay 30% of the way from the mobile (a) to the
// base station (b).
func ExampleRelayPlacement() {
	s, err := bicoop.RelayPlacement{Pos: 0.3, Exponent: 3}.Scenario(15)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Gab = %.2f dB, Gar = %.2f dB, Gbr = %.2f dB\n", s.GabDB, s.GarDB, s.GbrDB)
	// Output:
	// Gab = 0.00 dB, Gar = 15.69 dB, Gbr = 4.65 dB
}

// ExampleHBCBeyondOuterBounds exhibits the paper's surprising finding: the
// four-phase protocol achieves rate pairs that the outer bounds of both the
// two- and three-phase protocols forbid.
func ExampleHBCBeyondOuterBounds() {
	pts, err := bicoop.HBCBeyondOuterBounds(fig4Example)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("found escape points: %v\n", len(pts) > 0)
	// Output:
	// found escape points: true
}

// ExampleNewEngine shows the session-oriented API: one Engine whose pooled
// evaluators serve every call, here warming up on the Fig 4 scenario.
func ExampleNewEngine() {
	eng := bicoop.NewEngine()
	res, err := eng.SumRate(bicoop.MABC, bicoop.Inner, fig4Example)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("MABC optimal sum rate: %.4f bits/use\n", res.Sum)
	// Output:
	// MABC optimal sum rate: 3.3053 bits/use
}

// ExampleEngine_SumRateBatch evaluates a power sweep in one engine call,
// amortizing a single warm evaluator across the whole grid — the access
// pattern of the paper's figure sweeps and of any bulk query service.
func ExampleEngine_SumRateBatch() {
	eng := bicoop.NewEngine()
	scenarios := []bicoop.Scenario{}
	for _, pdb := range []float64{0, 5, 10} {
		scenarios = append(scenarios, bicoop.Scenario{PowerDB: pdb, GabDB: -7, GarDB: 0, GbrDB: 5})
	}
	results, err := eng.SumRateBatch(context.Background(), bicoop.TDBC, bicoop.Inner, scenarios)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, r := range results {
		fmt.Printf("P = %2.0f dB: %.4f bits/use\n", scenarios[i].PowerDB, r.Sum)
	}
	// Output:
	// P =  0 dB: 0.9055 bits/use
	// P =  5 dB: 1.8229 bits/use
	// P = 10 dB: 3.0570 bits/use
}

// ExampleEngine_Sweep declares a relay-placement grid once and streams the
// evaluated points, rendering incrementally as each arrives.
func ExampleEngine_Sweep() {
	eng := bicoop.NewEngine()
	spec := bicoop.SweepSpec{
		Protocols:  []bicoop.Protocol{bicoop.MABC, bicoop.TDBC},
		PowersDB:   []float64{10},
		Placements: []bicoop.RelayPlacement{{Pos: 0.25, Exponent: 3}, {Pos: 0.5, Exponent: 3}},
	}
	err := eng.Sweep(context.Background(), spec, func(pt bicoop.SweepPoint) error {
		fmt.Printf("relay at %.2f, %-5v: %.4f bits/use\n", pt.Placement.Pos, pt.Protocol, pt.Result.Sum)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// relay at 0.25, MABC : 4.6267 bits/use
	// relay at 0.25, TDBC : 4.5325 bits/use
	// relay at 0.50, MABC : 4.6452 bits/use
	// relay at 0.50, TDBC : 5.1662 bits/use
}
