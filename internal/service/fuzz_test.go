package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"bicoop"
)

// FuzzParseJobSpec feeds arbitrary bytes to the HTTP admission parser. For
// every input: ParseJobSpec never panics; a spec it accepts passes Validate;
// and the accepted spec's JSON encoding parses again and re-encodes to the
// same bytes, so what the store persists as spec.json is a fixed point of
// the wire format.
func FuzzParseJobSpec(f *testing.F) {
	for _, body := range []string{
		tinySweepJSON,
		"{",
		"{}",
		`{"sweeep": {}}`,
		`{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}, "protocols": ["FDMA"]}}`,
		`{"sweep": {"base": {"PowerDB": 1e999, "GabDB": -7, "GarDB": 0, "GbrDB": 5}}}`,
	} {
		f.Add([]byte(body))
	}
	withPolicy := tinySweep(2)
	withPolicy.Retry = &RetryConfig{MaxAttempts: 3, BaseDelayMS: 10, MaxDelayMS: 100}
	withPolicy.TimeoutMS = 5000
	for _, spec := range []JobSpec{
		tinySweep(0),
		withPolicy,
		longSweep(1),
		{RegionBatch: &RegionJob{
			Scenarios: []bicoop.Scenario{testScenario},
			Curves: []bicoop.RegionCurve{
				{Protocol: bicoop.MABC, Bound: bicoop.Inner},
				{Protocol: bicoop.HBC, Bound: bicoop.Outer},
			},
			Angles:  31,
			Workers: 2,
		}},
		{Campaign: &CampaignJob{Specs: []SimJob{
			{Fading: &bicoop.FadingSpec{Scenario: testScenario}, Trials: 200, Seed: 7},
			{BitTrueTDBC: &bicoop.BitTrueTDBCSpec{
				Links: bicoop.ErasureLinks{EpsAR: 0.1, EpsBR: 0.1, EpsAB: 0.5},
				Rates: bicoop.RatePoint{Ra: 0.2, Rb: 0.2}, BlockLength: 64,
			}, Trials: 50, Seed: 3},
			{BitTrueMABC: &bicoop.BitTrueMABCSpec{
				Links: bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1},
				Rate:  0.1, BlockLength: 64,
			}, Trials: 10, Seed: 1},
		}}},
	} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", err, data)
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v\ninput: %q", err, data)
		}
		again, err := ParseJobSpec(first)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\nencoding: %s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
