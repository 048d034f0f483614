package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// inputsOf collects every generated input of the first requests of each
// workload for one seed.
func inputsOf(t *testing.T, seed int64) []any {
	t.Helper()
	base, err := newWaterfallBase()
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	for i := range 16 {
		out = append(out, sweepGridSpec(seed, i), regionSpec(seed, i), base.campaign(seed, i))
		origin := jobOrigin(seed, i)
		out = append(out, origin, freshJob(seed, origin))
	}
	return out
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := inputsOf(t, 42), inputsOf(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c := inputsOf(t, 43)
	for k := range a {
		if _, isInt := a[k].(int); isInt {
			continue // job origins may coincide across seeds
		}
		if reflect.DeepEqual(a[k], c[k]) {
			t.Errorf("input %d (%T) is identical for seeds 42 and 43", k, a[k])
		}
	}
}

func TestJobMixRepeatsAboutHalf(t *testing.T) {
	repeats, regions := 0, 0
	const n = 4000
	for i := range n {
		o := jobOrigin(7, i)
		if o > i {
			t.Fatalf("job %d repeats a later job %d", i, o)
		}
		if o != i {
			repeats++
		}
		if freshJob(7, o).RegionBatch != nil {
			regions++
		}
	}
	if repeats < n*4/10 || repeats > n*6/10 {
		t.Errorf("%d of %d jobs repeat an earlier one; want about half", repeats, n)
	}
	if regions == 0 || regions > n/4 {
		t.Errorf("%d of %d jobs are region batches; want a few", regions, n)
	}
}

// TestLayerMapMatchesBenchmarkJSON pins the per-layer metrics declared in
// BENCHMARK.json to the layer map the traced run reports from.
func TestLayerMapMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var gatedE2E []string
	for _, k := range endToEndOrder {
		if !reportOnly[k] {
			gatedE2E = append(gatedE2E, k)
		}
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, gatedE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v; the final line carries %v", e2e, gatedE2E)
	}
	var declared []layerMetric
	for _, m := range layerMap.Metrics {
		if m.Benchmark {
			declared = append(declared, m)
		}
		for _, mv := range m.Moves {
			if _, ok := findWorkload(mv.Workload); !ok {
				t.Errorf("%s moves %s on unknown workload %q", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
	if len(bench.PerLayer) != len(declared) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layermap.json declares %d", len(bench.PerLayer), len(declared))
	}
	for k, m := range declared {
		if b := bench.PerLayer[k]; b.Name != m.Name || b.Unit != m.Unit || b.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v; layer map has %s %s %s", k, b, m.Name, m.Unit, m.Better)
		}
	}
	var gated []string
	for k, w := range layerMap.Workloads {
		if k >= len(workloads) || workloads[k].name != w.Name {
			t.Fatalf("layermap.json workload %d is %q; the code lists them in another order", k, w.Name)
		}
		if w.Benchmark {
			gated = append(gated, w.Name)
		}
	}
	if len(layerMap.Workloads) != len(workloads) {
		t.Fatalf("layermap.json has %d workloads, the code %d", len(layerMap.Workloads), len(workloads))
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gated) {
		t.Fatalf("BENCHMARK.json workloads %v; layermap.json marks %v", names, gated)
	}
}
