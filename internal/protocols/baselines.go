package protocols

// This file implements the comparison schemes the paper positions itself
// against: the two-phase amplify-and-forward protocol of Popovski/Yomo and
// Rankov/Wittneben (references [7], [8] of the paper), and the full-duplex
// two-way decode-and-forward relay bounds of Rankov/Wittneben ([9]), whose
// half-duplex restriction is exactly what the paper's protocols manage.
// Both are Gaussian-case evaluations; they are extensions beyond the
// paper's own theorems and are kept out of the Compile path.

import (
	"fmt"
	"math"

	"bicoop/internal/xmath"
)

// AFSumRate evaluates the two-phase amplify-and-forward ("analog network
// coding") protocol: in phase 1 both terminals transmit simultaneously; in
// phase 2 the relay scales its received signal to its power budget and
// retransmits. Each terminal cancels its own self-interference (it knows
// its transmitted signal and, with full CSI, the round-trip gain) and
// decodes the other message from the remaining signal plus amplified noise.
//
// With unit-power noise, per-node power P, and duration split (Δ, 1−Δ),
// the relay's amplification factor is g² = P / (P·Gar + P·Gbr + 1) and the
// post-cancellation SNRs are
//
//	SNR_b←a = g²·Gar·Gbr·P / (g²·Gbr + 1)   (at terminal b)
//	SNR_a←b = g²·Gar·Gbr·P / (g²·Gar + 1)   (at terminal a),
//
// giving Ra ≤ Δ2·C(SNR_b←a), Rb ≤ Δ2·C(SNR_a←b) — phase 1 contributes no
// separate decoding constraint because the relay never decodes. Since both
// rates grow with Δ2 but the signal energy is captured in phase 1, the
// conventional AF protocol uses Δ1 = Δ2 = 1/2 (one symbol in, one symbol
// out); AFSumRate reports that operating point.
func AFSumRate(s Scenario) (SumRateResult, error) {
	if err := s.Validate(); err != nil {
		return SumRateResult{}, err
	}
	p, g := s.P, s.G
	amp2 := p / (p*g.AR + p*g.BR + 1)
	snrB := amp2 * g.AR * g.BR * p / (amp2*g.BR + 1)
	snrA := amp2 * g.AR * g.BR * p / (amp2*g.AR + 1)
	ra := 0.5 * xmath.C(snrB)
	rb := 0.5 * xmath.C(snrA)
	return SumRateResult{
		Protocol:  MABC, // AF shares MABC's two-phase schedule
		Kind:      BoundInner,
		Sum:       ra + rb,
		Rates:     RatePair{Ra: ra, Rb: rb},
		Durations: []float64{0.5, 0.5},
	}, nil
}

// AFRegionConstraints returns the AF achievable region's two half-plane
// caps (Ra ≤ ra*, Rb ≤ rb*) at the half/half schedule; the region is the
// axis-aligned rectangle (time sharing inside one AF session does not trade
// the two rates against each other, as both ride the same relay signal).
func AFRegionConstraints(s Scenario) (RatePair, error) {
	res, err := AFSumRate(s)
	if err != nil {
		return RatePair{}, err
	}
	return res.Rates, nil
}

// FullDuplexSumRate evaluates the decode-and-forward two-way relay bounds
// when all nodes are full duplex (reference [9]): with no half-duplex
// constraint there are no phases, the relay continuously decodes both
// messages while broadcasting the previous block's XOR, and the per-block
// constraints become
//
//	Ra ≤ min(I(Xa;Yr|Xb,Xr), I(Xr;Yb|Xb))
//	Rb ≤ min(I(Xb;Yr|Xa,Xr), I(Xr;Ya|Xa))
//	Ra + Rb ≤ I(Xa,Xb;Yr|Xr)
//
// which for independent Gaussian inputs evaluate to C(P·G) link terms with
// no Δ discounts. This is the ceiling every half-duplex protocol in the
// paper chases; the gap to it is the half-duplex penalty.
func FullDuplexSumRate(s Scenario) (SumRateResult, error) {
	li, err := LinkInfosFromScenario(s)
	if err != nil {
		return SumRateResult{}, err
	}
	ra := math.Min(li.MACAGivenB, li.RtoB)
	rb := math.Min(li.MACBGivenA, li.RtoA)
	sum := math.Min(ra+rb, li.MACSum)
	// Scale back individual rates proportionally if the MAC sum binds.
	if ra+rb > li.MACSum {
		scale := li.MACSum / (ra + rb)
		ra *= scale
		rb *= scale
	}
	return SumRateResult{
		Protocol:  HBC, // closest schedule-free analogue
		Kind:      BoundInner,
		Sum:       sum,
		Rates:     RatePair{Ra: ra, Rb: rb},
		Durations: nil, // no phases in full duplex
	}, nil
}

// HalfDuplexPenalty reports, for one protocol, the fraction of the
// full-duplex DF sum rate the half-duplex protocol retains at a scenario
// (1.0 means no penalty).
func HalfDuplexPenalty(p Protocol, s Scenario) (float64, error) {
	fd, err := FullDuplexSumRate(s)
	if err != nil {
		return 0, err
	}
	if fd.Sum <= 0 {
		return 0, fmt.Errorf("protocols: degenerate full-duplex sum rate %g", fd.Sum)
	}
	hd, err := NewEvaluator().SumRate(p, BoundInner, s)
	if err != nil {
		return 0, err
	}
	return hd / fd.Sum, nil
}
