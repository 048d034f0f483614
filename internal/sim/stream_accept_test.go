package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

// acceptSeed is the single seed of the stream acceptance test. It was fixed
// before the test first ran and must never be changed to make it pass.
const acceptSeed = 1729

// zOneSample is the z statistic of x successes in n trials against a known
// success probability p0.
func zOneSample(x, n int, p0 float64) float64 {
	return (float64(x)/float64(n) - p0) / math.Sqrt(p0*(1-p0)/float64(n))
}

// zTwoSample is the pooled two-proportion z statistic of x1/n1 against
// x2/n2.
func zTwoSample(x1, n1, x2, n2 int) float64 {
	p := float64(x1+x2) / float64(n1+n2)
	se := math.Sqrt(p * (1 - p) * (1/float64(n1) + 1/float64(n2)))
	return (float64(x1)/float64(n1) - float64(x2)/float64(n2)) / se
}

// TestStreamStatisticalAcceptance checks that the trial-indexed stream
// samples the same laws as the per-worker stream it replaced. Every check is
// two-sided at |z| ≤ 4 (false-failure probability 6.3e-5 each under the
// null); with nine checks the family-wise false-failure probability is at
// most 9 × 6.3e-5 ≈ 5.7e-4 by the union bound, which needs no independence
// between checks that share a run.
//
//   - MABC compute-and-forward at links (0.2, 0.15, 0.1), n=1200, 4000
//     trials, rate = MABCComputeForwardBound × {1.0, 0.98}: the success
//     fraction against its exact finite-length value (0.2321 and 0.7091; the
//     retired stream read 0.2280 and 0.7063 at seed 7, Workers 2).
//   - TDBC at the waterfall pin point, n=1200, 3000 trials, scales 0.98 and
//     1.0: relay success and block success against the retired stream's
//     counts at seed 7, Workers 2 (two-proportion test).
//   - Fading outage at GainsFromDB(-7, 0, 5), P = 10 dB, target (0.5, 0.5),
//     20000 trials: MABC/TDBC/HBC outage counts against the retired
//     stream's at seed 7, Workers 2 (two-proportion test).
func TestStreamStatisticalAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo acceptance test")
	}
	if raceEnabled {
		// The laws it checks do not depend on scheduling, and the race
		// tests of the trial pool run elsewhere; under the detector it
		// would only add about 50 s.
		t.Skip("statistics check; nothing for the race detector to find")
	}
	ctx := context.Background()
	check := func(name string, z float64) {
		t.Helper()
		if math.Abs(z) > 4 {
			t.Errorf("%s: |z| = %.2f exceeds 4", name, math.Abs(z))
		} else {
			t.Logf("%s: z = %+.2f", name, z)
		}
	}

	bound, durations := MABCComputeForwardBound(0.2, 0.15, 0.1)
	for _, c := range []struct{ scale, exact float64 }{{1.0, 0.2321}, {0.98, 0.7091}} {
		res, err := RunBitTrueMABC(ctx, MABCBitTrueConfig{
			EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
			Rate:        bound * c.scale,
			Durations:   durations,
			BlockLength: 1200,
			Trials:      4000,
			Seed:        acceptSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ok := res.Trials - res.RelayFailures - res.TerminalFailures
		check(fmt.Sprintf("MABC scale %.2f success %d/%d vs exact %.4f", c.scale, ok, res.Trials, c.exact),
			zOneSample(ok, res.Trials, c.exact))
	}

	for _, c := range []struct {
		scale                     float64
		ok, relayFails, termFails int // retired stream, seed 7, Workers 2
	}{{0.98, 1015, 963, 1022}, {1.0, 147, 2299, 554}} {
		res, err := RunBitTrueTDBC(ctx, BitTrueConfig{
			Net:         pinTDBCNet,
			Rates:       protocols.RatePair{Ra: pinTDBCRates.Ra * c.scale, Rb: pinTDBCRates.Rb * c.scale},
			Durations:   pinTDBCDurations,
			BlockLength: 1200,
			Trials:      3000,
			Seed:        acceptSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		oldN := c.ok + c.relayFails + c.termFails
		ok := res.Trials - res.RelayFailures - res.TerminalFailures
		check(fmt.Sprintf("TDBC scale %.2f relay success", c.scale),
			zTwoSample(res.Trials-res.RelayFailures, res.Trials, oldN-c.relayFails, oldN))
		check(fmt.Sprintf("TDBC scale %.2f block success", c.scale),
			zTwoSample(ok, res.Trials, c.ok, oldN))
	}

	protos := []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC}
	res, err := RunOutage(ctx, OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(10),
		Protocols: protos,
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    20000,
		Seed:      acceptSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, old := range []int{2505, 2112, 1992} { // retired stream, seed 7, Workers 2
		st := res.ByProtocol[protos[i]]
		outages := int(math.Round(st.OutageProb * float64(st.Trials)))
		check(fmt.Sprintf("%v outage %d/%d vs %d/20000", protos[i], outages, st.Trials, old),
			zTwoSample(outages, st.Trials, old, 20000))
	}
}
