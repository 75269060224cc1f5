package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if findWorkload(w.Name) == nil || workloads[i].name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		what string
		doc  []struct{ Name, Unit, Better string }
		code []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.doc) != len(tc.code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", tc.what, len(tc.doc), len(tc.code))
		}
		for i, m := range tc.doc {
			c := tc.code[i]
			if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in code", tc.what, i, m, c)
			}
		}
	}
}
