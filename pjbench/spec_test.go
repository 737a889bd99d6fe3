package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestSpecMatchesCode keeps BENCHMARK.json and the code in step: the
// workloads it lists are the ones the command runs but coord-lookup, and
// its per-layer metrics are the ones the layer map names.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	// coord-lookup runs by name and in "all", and every traced run covers
	// its layers, but its figures spread too widely between runs to gate
	// on (README.md, "Workloads").
	gated := slices.DeleteFunc(slices.Clone(workloadOrder), func(w string) bool { return w == "coord-lookup" })
	if !slices.Equal(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, gated)
	}
	var layer, mapped []string
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, row := range layerMap {
		mapped = append(mapped, row.Metrics...)
	}
	slices.Sort(layer)
	slices.Sort(mapped)
	if !slices.Equal(layer, mapped) {
		t.Errorf("BENCHMARK.json per_layer %v, layer map %v", layer, mapped)
	}
}
