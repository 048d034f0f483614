package protocols

import (
	"fmt"
	"math"
)

// ErasureNetwork instantiates the paper's three-node half-duplex network
// with binary erasure links: link (i,j) delivers each transmitted bit with
// probability 1-ε(i,j), so its per-use mutual information is 1-ε. The
// channels are reciprocal, mirroring the Gaussian model.
type ErasureNetwork struct {
	// EpsAR, EpsBR, EpsAB are the erasure probabilities of the a-r, b-r and
	// a-b links.
	EpsAR, EpsBR, EpsAB float64
}

// Validate checks the erasure probabilities.
func (n ErasureNetwork) Validate() error {
	for _, e := range []float64{n.EpsAR, n.EpsBR, n.EpsAB} {
		if e < 0 || e > 1 || math.IsNaN(e) {
			return fmt.Errorf("protocols: erasure probability %g out of [0,1]", e)
		}
	}
	return nil
}

// LinkInfos maps the erasure network to the mutual-information terms of the
// protocol theorems: every point-to-point term is 1-ε, the broadcast
// observations are independent, and the SIMO terms combine erasures as
// 1-ε1·ε2 (the bit survives unless both copies are erased). The MAC terms
// are not meaningful for this orthogonal-erasure abstraction and are set to
// the values that make TDBC — the protocol the bit-true simulator executes —
// exactly evaluable.
func (n ErasureNetwork) LinkInfos() LinkInfos {
	return LinkInfos{
		AtoR:       1 - n.EpsAR,
		BtoR:       1 - n.EpsBR,
		AtoB:       1 - n.EpsAB,
		BtoA:       1 - n.EpsAB,
		RtoA:       1 - n.EpsAR,
		RtoB:       1 - n.EpsBR,
		MACAGivenB: 1 - n.EpsAR,
		MACBGivenA: 1 - n.EpsBR,
		MACSum:     math.Max(1-n.EpsAR, 1-n.EpsBR),
		AtoRB:      1 - n.EpsAR*n.EpsAB,
		BtoRA:      1 - n.EpsBR*n.EpsAB,
	}
}
