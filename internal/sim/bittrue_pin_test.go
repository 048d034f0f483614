package sim

import (
	"context"
	"fmt"
	"testing"

	"bicoop/internal/protocols"
)

// Waterfall operating points of the bit-true benchmarks: the TDBC
// inner-bound sum-rate optimum of the erasure network {0.2, 0.1, 0.6}
// (rates 36/97 and 28.8/97, durations 45/97, 32/97, 20/97 — the LP optimum
// OptimalTDBCErasureRates returns, written out so an LP change cannot move
// the pin) and the compute-and-forward MABC bound of {0.2, 0.15, 0.1}.
var (
	pinTDBCNet       = ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	pinTDBCRates     = protocols.RatePair{Ra: 36.0 / 97, Rb: 28.8 / 97}
	pinTDBCDurations = []float64{45.0 / 97, 32.0 / 97, 20.0 / 97}
)

// pinnedCounts is a run's outcome tally.
type pinnedCounts struct{ successes, relay, terminal int }

// TestBitTrueOutcomesPinned hard-codes the outcome counts of seeded
// bit-true runs at the waterfall operating points, below (scale 0.9), at
// (1.0, where relay and terminal failures mix with successes) and above
// (1.1) the bound, at n=1200 (k=320..544, both sides of the GF(2) solver's
// dense cutover, short relay systems from scale 1.0 on) and at n=4000
// scale 0.9 (k=1068..1483), for Workers 1 and 2. The counts were
// recorded before the solver's short-system exit, direct-indexed dense
// elimination and retuned cutover; they are a pure function of (Seed,
// Trials, Workers), so any solver change that alters a decode outcome —
// not just its speed — fails here.
func TestBitTrueOutcomesPinned(t *testing.T) {
	mabcRate, mabcDurations := MABCComputeForwardBound(0.2, 0.15, 0.1)
	cases := []struct {
		mabc   bool
		scale  float64
		n      int
		trials int
		want   [2]pinnedCounts // Workers 1, Workers 2
	}{
		{false, 0.9, 1200, 24, [2]pinnedCounts{{24, 0, 0}, {24, 0, 0}}},
		{false, 1.0, 1200, 24, [2]pinnedCounts{{2, 18, 4}, {3, 19, 2}}},
		{false, 1.1, 1200, 24, [2]pinnedCounts{{0, 24, 0}, {0, 24, 0}}},
		{true, 0.9, 1200, 24, [2]pinnedCounts{{24, 0, 0}, {24, 0, 0}}},
		{true, 1.0, 1200, 24, [2]pinnedCounts{{3, 13, 8}, {5, 12, 7}}},
		{true, 1.1, 1200, 24, [2]pinnedCounts{{0, 24, 0}, {0, 24, 0}}},
		{false, 0.9, 4000, 4, [2]pinnedCounts{{4, 0, 0}, {4, 0, 0}}},
		{true, 0.9, 4000, 4, [2]pinnedCounts{{4, 0, 0}, {4, 0, 0}}},
	}
	for _, c := range cases {
		for wi, workers := range []int{1, 2} {
			proto := "TDBC"
			if c.mabc {
				proto = "MABC"
			}
			t.Run(fmt.Sprintf("%s/scale%.1f/n%d/workers%d", proto, c.scale, c.n, workers), func(t *testing.T) {
				var got pinnedCounts
				if c.mabc {
					res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
						EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
						Rate:        mabcRate * c.scale,
						Durations:   mabcDurations,
						BlockLength: c.n,
						Trials:      c.trials,
						Seed:        12,
						Workers:     workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					got = pinnedCounts{res.Trials - res.RelayFailures - res.TerminalFailures, res.RelayFailures, res.TerminalFailures}
				} else {
					res, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
						Net:         pinTDBCNet,
						Rates:       protocols.RatePair{Ra: pinTDBCRates.Ra * c.scale, Rb: pinTDBCRates.Rb * c.scale},
						Durations:   pinTDBCDurations,
						BlockLength: c.n,
						Trials:      c.trials,
						Seed:        12,
						Workers:     workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					got = pinnedCounts{res.Trials - res.RelayFailures - res.TerminalFailures, res.RelayFailures, res.TerminalFailures}
				}
				if got != c.want[wi] {
					t.Errorf("(successes, relay failures, terminal failures) = %+v, want %+v", got, c.want[wi])
				}
			})
		}
	}
}
