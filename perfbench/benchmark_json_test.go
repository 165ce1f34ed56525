package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The benchmark's declaration must name exactly the workloads and
// metrics the program reports, with the same units.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if _, err := deckFor(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, the program runs %d", len(decl.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		seen := map[string]bool{}
		for _, m := range got {
			if unit, ok := want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): the program reports unit %q", kind, m.Name, m.Unit, unit)
			}
			seen[m.Name] = true
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %s is reported but not declared", kind, name)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd)
	check("per-layer", decl.PerLayer, perLayer)
}
