package bicoop_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"bicoop"
	"bicoop/internal/service"
)

// TestBitTrueDurationsValidated pins the bit-true specs' duration check:
// pinned durations that are negative, out of range, non-finite, of the
// wrong count or not summing to 1 are ErrInvalidSimSpec from
// Engine.Simulate, from SimulateBatch and from a bccd campaign submission
// (ParseJobSpec, for the values JSON can carry), before any trial runs;
// valid splits, including entries a rounding error below zero, still run.
func TestBitTrueDurationsValidated(t *testing.T) {
	tdbc := func(d ...float64) bicoop.SimSpec {
		return bicoop.SimSpec{
			BitTrueTDBC: &bicoop.BitTrueTDBCSpec{
				Links:       bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
				Rates:       bicoop.RatePoint{Ra: 0.2, Rb: 0.2},
				Durations:   d,
				BlockLength: 200,
			},
			Trials: 2, Seed: 1, Workers: 1,
		}
	}
	mabc := func(d ...float64) bicoop.SimSpec {
		return bicoop.SimSpec{
			BitTrueMABC: &bicoop.BitTrueMABCSpec{
				Links:       bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1},
				Rate:        0.2,
				Durations:   d,
				BlockLength: 200,
			},
			Trials: 2, Seed: 1, Workers: 1,
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		spec bicoop.SimSpec
		ok   bool
	}{
		{"mabc/negative-first", mabc(-0.2, 1.2), false},
		{"mabc/negative-second", mabc(1.5, -0.5), false},
		{"mabc/sum-above-1", mabc(0.6, 0.6), false},
		{"mabc/nan", mabc(nan, 0.5), false},
		{"mabc/inf", mabc(inf, 0), false},
		{"mabc/one-entry", mabc(1), false},
		{"tdbc/negative-first", tdbc(-0.2, 0.6, 0.6), false},
		{"tdbc/negative-last", tdbc(0.7, 0.7, -0.4), false},
		{"tdbc/sum-below-1", tdbc(0.3, 0.3, 0.3), false},
		{"tdbc/nan", tdbc(0.5, nan, 0.5), false},
		{"tdbc/minus-inf", tdbc(0.5, 0.5, -inf), false},
		{"tdbc/two-entries", tdbc(0.5, 0.5), false},
		{"mabc/valid", mabc(0.5, 0.5), true},
		{"mabc/rounding-below-zero", mabc(1+1e-13, -1e-13), true},
		{"mabc/derived", mabc(), true},
		{"tdbc/valid", tdbc(0.4, 0.3, 0.3), true},
	}
	ctx := context.Background()
	eng := bicoop.NewEngine(bicoop.WithWorkers(1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(call string, err error) {
				t.Helper()
				if c.ok && err != nil {
					t.Errorf("%s: err %v on valid durations", call, err)
				}
				if !c.ok && !errors.Is(err, bicoop.ErrInvalidSimSpec) {
					t.Errorf("%s: err %v, want ErrInvalidSimSpec", call, err)
				}
			}
			_, err := eng.Simulate(ctx, c.spec)
			check("Simulate", err)
			_, err = eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: []bicoop.SimSpec{c.spec}}, nil)
			check("SimulateBatch", err)

			job := service.JobSpec{Campaign: &service.CampaignJob{Specs: []service.SimJob{{
				BitTrueTDBC: c.spec.BitTrueTDBC,
				BitTrueMABC: c.spec.BitTrueMABC,
				Trials:      c.spec.Trials,
				Seed:        c.spec.Seed,
				Workers:     c.spec.Workers,
			}}}}
			data, err := json.Marshal(job)
			if err != nil {
				return // NaN and ±Inf have no JSON form, so no job can carry them
			}
			_, err = service.ParseJobSpec(data)
			check(fmt.Sprintf("ParseJobSpec(%s)", data), err)
		})
	}
}
