package main

// layermap.go — the declared layer map: for every per-layer metric, the
// layer it measures, its definition, and the end-to-end metric and workload
// it should move; for every workload, why it was chosen. BENCHMARK.json
// carries only the names, units and directions of the metrics, so the map
// lives here, next to the code that measures it.

import (
	_ "embed"
	"encoding/json"
	"strings"
)

//go:embed layermap.json
var layerMapJSON []byte

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	// Benchmark marks the metrics BENCHMARK.json declares; the others are
	// measured only by workloads it does not run (service-jobs).
	Benchmark  bool   `json:"benchmark"`
	Definition string `json:"definition"`
	Moves      []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves"`
}

// movesOn lists the end-to-end metrics this metric should move on the
// named workload, comma-separated.
func (m layerMetric) movesOn(workload string) string {
	var out []string
	for _, mv := range m.Moves {
		if mv.Workload == workload {
			out = append(out, mv.Metric)
		}
	}
	return strings.Join(out, ", ")
}

// layerWorkload is a workload's entry in the map. Benchmark is false for a
// workload that can be run by name but that BENCHMARK.json leaves out.
type layerWorkload struct {
	Name      string `json:"name"`
	Benchmark bool   `json:"benchmark"`
	Why       string `json:"why"`
}

var layerMap = func() (m struct {
	Workloads []layerWorkload `json:"workloads"`
	Metrics   []layerMetric   `json:"metrics"`
}) {
	if err := json.Unmarshal(layerMapJSON, &m); err != nil {
		panic("perfbench: layermap.json: " + err.Error())
	}
	return m
}()
