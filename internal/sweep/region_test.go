package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bicoop/internal/protocols"
	"bicoop/internal/region"
)

func regionTestSpec(angles int) RegionSpec {
	return RegionSpec{
		Scenarios: []Scenario{
			{PowerDB: 0, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 15, GabDB: -3, GarDB: 2, GbrDB: 4},
		},
		Curves: []RegionCurve{
			{Proto: protocols.DT, Bound: protocols.BoundInner},
			{Proto: protocols.MABC, Bound: protocols.BoundInner},
			{Proto: protocols.TDBC, Bound: protocols.BoundOuter},
			{Proto: protocols.HBC, Bound: protocols.BoundInner},
			{Proto: protocols.Naive4, Bound: protocols.BoundInner},
		},
		Angles: angles,
	}
}

func collectRegions(t *testing.T, spec RegionSpec, workers int) []RegionResult {
	t.Helper()
	var out []RegionResult
	err := RegionBatch(context.Background(), spec, Options{Workers: workers}, func(r RegionResult) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

// TestRegionBatchBitIdenticalAcrossWorkers is the sharding determinism
// contract for the region workload: every worker count must produce the
// same polygon vertices bit for bit, warm-started Naive4/HBC curves
// included.
func TestRegionBatchBitIdenticalAcrossWorkers(t *testing.T) {
	spec := regionTestSpec(61)
	ref := collectRegions(t, spec, 1)
	if len(ref) != spec.Size() {
		t.Fatalf("got %d curves, want %d", len(ref), spec.Size())
	}
	for _, workers := range []int{2, 7} {
		got := collectRegions(t, spec, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d curves, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].ScenarioIdx != ref[i].ScenarioIdx || got[i].CurveIdx != ref[i].CurveIdx {
				t.Fatalf("workers=%d: curve %d coordinates differ: %+v vs %+v",
					workers, i, got[i], ref[i])
			}
			gv, rv := got[i].Polygon.Vertices(), ref[i].Polygon.Vertices()
			if !reflect.DeepEqual(gv, rv) {
				t.Fatalf("workers=%d: curve %d vertices differ:\n  got  %v\n  want %v",
					workers, i, gv, rv)
			}
		}
	}
}

// TestRegionBatchEnumerationOrder pins the streaming order: scenario-major,
// curve-minor, regardless of completion order.
func TestRegionBatchEnumerationOrder(t *testing.T) {
	spec := regionTestSpec(33)
	got := collectRegions(t, spec, 4)
	for i, r := range got {
		wantScen, wantCurve := i/len(spec.Curves), i%len(spec.Curves)
		if r.ScenarioIdx != wantScen || r.CurveIdx != wantCurve {
			t.Fatalf("curve %d arrived as (%d, %d), want (%d, %d)",
				i, r.ScenarioIdx, r.CurveIdx, wantScen, wantCurve)
		}
	}
}

// TestRegionBatchMatchesSerialRegion cross-checks the sharded path against
// the serial Evaluator.Region sweep. The closed-form protocols (DT, MABC,
// TDBC) never touch the warm-started simplex, so their polygons must agree
// bit for bit; the simplex-solved HBC/Naive4 curves agree to LP-refinement
// tolerance.
func TestRegionBatchMatchesSerialRegion(t *testing.T) {
	spec := regionTestSpec(45)
	got := collectRegions(t, spec, 3)
	serial := protocols.NewEvaluator()
	for _, r := range got {
		c := spec.Curves[r.CurveIdx]
		s := spec.Scenarios[r.ScenarioIdx]
		want, err := serial.Region(c.Proto, c.Bound, s.internal(),
			protocols.RegionOptions{Angles: spec.Angles})
		if err != nil {
			t.Fatal(err)
		}
		gv, wv := r.Polygon.Vertices(), want.Vertices()
		fast := c.Proto == protocols.DT || c.Proto == protocols.MABC || c.Proto == protocols.TDBC
		if fast {
			if !reflect.DeepEqual(gv, wv) {
				t.Errorf("%v %v scenario %d: sharded vertices differ from serial:\n  got  %v\n  want %v",
					c.Proto, c.Bound, r.ScenarioIdx, gv, wv)
			}
			continue
		}
		if d := math.Abs(r.Polygon.Area() - want.Area()); d > 1e-9 {
			t.Errorf("%v %v scenario %d: area gap %g between sharded and serial",
				c.Proto, c.Bound, r.ScenarioIdx, d)
		}
		for _, v := range wv {
			if !r.Polygon.Contains(v, 1e-7) {
				t.Errorf("%v %v scenario %d: serial vertex %v outside sharded polygon",
					c.Proto, c.Bound, r.ScenarioIdx, v)
			}
		}
	}
}

// TestRegionBatchCancellation proves a long region batch stops sub-second on
// cancellation and leaks no goroutines — the contract a Ctrl-C in `bcc
// region` relies on.
func TestRegionBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	spec := RegionSpec{
		Scenarios: []Scenario{{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}},
		Curves:    []RegionCurve{{Proto: protocols.HBC, Bound: protocols.BoundInner}},
		// Hours of LP solves if cancellation were ignored.
		Angles: 5_000_000,
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	yields := 0
	err := RegionBatch(ctx, spec, Options{Workers: 2}, func(RegionResult) error {
		yields++
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled region batch took %v, want sub-second", elapsed)
	}
	if yields != 0 {
		t.Errorf("incomplete curve yielded %d times", yields)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRegionBatchYieldError pins that a yield error stops the batch and is
// returned verbatim.
func TestRegionBatchYieldError(t *testing.T) {
	sentinel := errors.New("stop")
	spec := regionTestSpec(21)
	n := 0
	err := RegionBatch(context.Background(), spec, Options{Workers: 2}, func(RegionResult) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Fatalf("err = %v after %d yields, want sentinel after 3", err, n)
	}
}

// TestRegionBatchDegenerateSpecs covers the empty and invalid shapes.
func TestRegionBatchDegenerateSpecs(t *testing.T) {
	if err := RegionBatch(context.Background(), RegionSpec{}, Options{}, func(RegionResult) error {
		t.Fatal("yield on empty spec")
		return nil
	}); err != nil {
		t.Fatalf("empty spec err = %v, want nil", err)
	}
	bad := regionTestSpec(1) // a 1-angle sweep cannot define directions
	if err := RegionBatch(context.Background(), bad, Options{}, func(RegionResult) error { return nil }); !errors.Is(err, ErrSpec) {
		t.Fatalf("angles=1 err = %v, want ErrSpec", err)
	}
	nan := regionTestSpec(11)
	nan.Scenarios[0].PowerDB = math.NaN()
	if err := RegionBatch(context.Background(), nan, Options{}, func(RegionResult) error { return nil }); err == nil {
		t.Fatal("NaN scenario accepted")
	}
}

// TestRegionOneAngleRefusedOnBothPaths pins that a 1-angle sweep, whose
// support direction would divide 0 by 0, is an error on both serial region
// paths (Spec.Region, Evaluator.Region) as on RegionBatch, instead of a
// polygon built from the two axis solves alone.
func TestRegionOneAngleRefusedOnBothPaths(t *testing.T) {
	s := Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}.internal()
	opts := protocols.RegionOptions{Angles: 1}
	for _, proto := range protocols.Protocols() {
		spec, err := protocols.CompileGaussian(proto, protocols.BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		serial := map[string]func() (region.Polygon, error){
			"Spec.Region": func() (region.Polygon, error) { return spec.Region(opts) },
			"Evaluator.Region": func() (region.Polygon, error) {
				return protocols.NewEvaluator().Region(proto, protocols.BoundInner, s, opts)
			},
		}
		for name, build := range serial {
			if poly, err := build(); !errors.Is(err, protocols.ErrBadAngles) {
				t.Errorf("%v %s: angles=1 gave %d vertices, err %v; want ErrBadAngles", proto, name, len(poly.Vertices()), err)
			}
		}
	}
	err := RegionBatch(context.Background(), regionTestSpec(1), Options{}, func(RegionResult) error {
		t.Fatal("yield on a 1-angle batch")
		return nil
	})
	if !errors.Is(err, ErrSpec) {
		t.Errorf("RegionBatch angles=1 err = %v, want ErrSpec", err)
	}
}

// TestRegionBatchAxisAnchors pins that every polygon's per-user maxima come
// from the exact axis solves: the support in each axis direction equals the
// dedicated (1,0)/(0,1) solve, not a nearby swept angle.
func TestRegionBatchAxisAnchors(t *testing.T) {
	spec := regionTestSpec(9) // coarse sweep: anchors must still be exact
	got := collectRegions(t, spec, 2)
	ev := protocols.NewEvaluator()
	for _, r := range got {
		c := spec.Curves[r.CurveIdx]
		li, err := protocols.LinkInfosFromScenario(spec.Scenarios[r.ScenarioIdx].internal())
		if err != nil {
			t.Fatal(err)
		}
		raOpt, err := ev.WeightedRateLinks(c.Proto, c.Bound, li, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rbOpt, err := ev.WeightedRateLinks(c.Proto, c.Bound, li, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		maxRa, _ := r.Polygon.Support(1, 0)
		maxRb, _ := r.Polygon.Support(0, 1)
		if math.Abs(maxRa-raOpt.Rates.Ra) > 1e-9 || math.Abs(maxRb-rbOpt.Rates.Rb) > 1e-9 {
			t.Errorf("%v %v scenario %d: axis maxima (%g, %g), want (%g, %g)",
				c.Proto, c.Bound, r.ScenarioIdx, maxRa, maxRb, raOpt.Rates.Ra, rbOpt.Rates.Rb)
		}
	}
}
