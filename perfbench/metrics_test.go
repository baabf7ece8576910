package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables perfbench prints from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []string) {
		units := map[string]string{}
		for _, m := range declared {
			units[m.Name] = m.Unit
			if metricUnits[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, perfbench unit %q", kind, m.Name, m.Unit, metricUnits[m.Name])
			}
		}
		seen := map[string]bool{}
		for _, n := range emitted {
			seen[n] = true
			if _, ok := units[n]; !ok {
				t.Errorf("%s: perfbench emits %s, which BENCHMARK.json does not declare", kind, n)
			}
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("%s %s is declared but perfbench does not emit it", kind, n)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics)
	check("per-layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		switch w.Name {
		case "generate", "report", "serve":
		default:
			t.Errorf("BENCHMARK.json workload %s is not one perfbench runs", w.Name)
		}
	}
}

// TestSpanMetricsAreDeclared keeps the span-derived metrics inside the
// per-layer set.
func TestSpanMetricsAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, n := range perLayerMetrics {
		declared[n] = true
	}
	for n := range spanMetrics {
		if !declared[n] {
			t.Errorf("span metric %s is not a per-layer metric", n)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := withSelfTimes([]span{
		{Run: "r", ID: 1, Name: "root", Start: 0, End: 100},
		{Run: "r", ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Run: "r", ID: 3, Parent: 1, Name: "b", Start: 30, End: 50}, // overlaps a
		{Run: "r", ID: 4, Parent: 2, Name: "c", Start: 20, End: 25},
		{Run: "other", ID: 2, Parent: 1, Name: "elsewhere", Start: 0, End: 100},
	})
	want := map[string]int64{"root": 60, "a": 25, "b": 20, "c": 5, "elsewhere": 100}
	for _, s := range spans {
		if s.SelfNs != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.SelfNs, want[s.Name])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, math.Inf(1)}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf (a failed request)", got)
	}
	if got := quantile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
}
