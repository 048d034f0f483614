package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"bicoop"
)

// The oracle self-tests run real requests, confirm the oracles accept
// them, then perturb the output and require the perturbation to be caught.

func TestSweepOracleCatchesPerturbation(t *testing.T) {
	ctx := context.Background()
	inst, err := setupSweepGrid(ctx, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*sweepGrid)
	for i := range 2 { // an inner request and its outer twin
		if _, err := w.request(ctx, i, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	spec := sweepGridSpec(3, 1)
	good := append([]float64(nil), w.sums...)
	perturb := map[string]func(){
		"every sum off by 1e-6": func() {
			for k := range w.sums {
				w.sums[k] *= 1 + 1e-6
			}
		},
		"HBC below MABC": func() {
			w.sums[protoIndex(bicoop.HBC)] = w.sums[protoIndex(bicoop.MABC)] - 1e-3
		},
		"MABC outer differs from inner": func() {
			w.sums[len(w.sums)-5+protoIndex(bicoop.MABC)] += 1e-6
		},
	}
	for name, p := range perturb {
		copy(w.sums, good)
		p()
		if err := w.check(spec, 1); !errors.Is(err, errOracle) {
			t.Errorf("%s: check = %v; want an oracle rejection", name, err)
		}
	}
	copy(w.sums, good)
	if err := w.check(spec, 1); err != nil {
		t.Fatalf("unperturbed output rejected: %v", err)
	}
}

func TestRegionOracleCatchesPerturbation(t *testing.T) {
	ctx := context.Background()
	inst, err := setupRegionCurves(ctx, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*regionCurvesW)
	if _, err := w.request(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	spec := regionSpec(3, 0)
	// Serve the DT inner polygon in place of HBC inner.
	w.regs[2*protoIndex(bicoop.HBC)] = w.regs[2*protoIndex(bicoop.DT)]
	if err := w.check(ctx, spec, 0); !errors.Is(err, errOracle) {
		t.Fatalf("check = %v; want an oracle rejection", err)
	}
}

func TestWaterfallOracleCatchesPerturbation(t *testing.T) {
	base, err := newWaterfallBase()
	if err != nil {
		t.Fatal(err)
	}
	below, above := base.points[0], base.points[1] // scale 0.9, then 1.1
	ok := func(p float64, trials int) bicoop.SimResult {
		return bicoop.SimResult{BitTrue: &bicoop.BitTrueResult{SuccessProb: p}, Trials: trials}
	}
	if err := checkWaterfall(below, ok(0.95, below.trials)); err != nil {
		t.Fatalf("a healthy point was rejected: %v", err)
	}
	for name, c := range map[string]struct {
		pt waterfallPoint
		r  bicoop.SimResult
	}{
		"decodes too rarely below the bound": {below, ok(0.5, below.trials)},
		"decodes too often above the bound":  {above, ok(0.5, above.trials)},
		"ran too few trials":                 {below, ok(1, below.trials-1)},
	} {
		if err := checkWaterfall(c.pt, c.r); !errors.Is(err, errOracle) {
			t.Errorf("%s: check = %v; want an oracle rejection", name, err)
		}
	}
}

func TestServiceOracleCatchesPerturbation(t *testing.T) {
	ctx := context.Background()
	inst, err := setupServiceJobs(ctx, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*serviceJobs)
	defer func() {
		if err := w.close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := w.request(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	job := freshJob(3, 0)
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.roundTrip(ctx, body, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(ctx, 0, job, got); err != nil {
		t.Fatalf("served results rejected: %v", err)
	}
	bad := bytes.Clone(got)
	bad[len(bad)-2] ^= 1 // flip a bit of the last digit
	if err := w.check(ctx, 0, job, bad); !errors.Is(err, errOracle) {
		t.Fatalf("check = %v; want an oracle rejection", err)
	}
}
