package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json perfbench must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON holds the printed metric names and
// units to BENCHMARK.json one to one, in both directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	type pair struct{ name, unit string }
	same := func(kind string, got []metricDef, want []pair) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: perfbench prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		listed := map[string]string{}
		for _, w := range want {
			if _, dup := listed[w.name]; dup {
				t.Errorf("%s: %s listed twice", kind, w.name)
			}
			listed[w.name] = w.unit
		}
		printed := map[string]bool{}
		for _, g := range got {
			if printed[g.name] {
				t.Errorf("%s: perfbench prints %s twice", kind, g.name)
			}
			printed[g.name] = true
			if unit, ok := listed[g.name]; !ok {
				t.Errorf("%s: perfbench prints %s, which BENCHMARK.json does not list", kind, g.name)
			} else if unit != g.unit {
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", kind, g.name, g.unit, unit)
			}
		}
		for _, w := range want {
			if !printed[w.name] {
				t.Errorf("%s: BENCHMARK.json lists %s, which perfbench never prints", kind, w.name)
			}
		}
	}
	var e2e, layer []pair
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, pair{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, pair{m.Name, m.Unit})
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layer)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i])
		}
	}
}

// TestNewResultRefusesGaps checks that a run cannot print a result with
// a metric missing, unmeasured or unlisted.
func TestNewResultRefusesGaps(t *testing.T) {
	vals := map[string]float64{}
	for i, d := range endToEnd {
		vals[d.name] = float64(i + 1)
	}
	r, err := newResult(endToEnd, vals, 10, 0)
	if err != nil || !r.Correct || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("complete result refused: %v", err)
	}
	if r, _ := newResult(endToEnd, vals, 10, 1); r.Correct {
		t.Error("a failed operation left the result correct")
	}
	delete(vals, "setup_s")
	if _, err := newResult(endToEnd, vals, 10, 0); err == nil {
		t.Error("missing setup_s accepted")
	}
	vals["setup_s"] = 0
	vals["extra"] = 1
	if _, err := newResult(endToEnd, vals, 10, 0); err == nil {
		t.Error("unlisted metric accepted")
	}
}
