package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at tiny
// scale, untraced and traced, and checks that each run verifies its joins
// and emits exactly the metrics BENCHMARK.json names for that mode, with
// their units.
func TestEveryMetricEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.Name, seed: 1, seconds: 1, traced: traced, sc: tinyScale}
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatalf("result does not encode: %v", err)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					var names []string
					for n := range res.Metrics {
						names = append(names, n)
					}
					sort.Strings(names)
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d: %v", len(res.Metrics), len(want), names)
				}
			})
		}
	}
}
