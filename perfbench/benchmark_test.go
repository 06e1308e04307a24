package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/experiment"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program in
// step: the same workloads, the bounded end-to-end metrics and the
// per-layer metrics, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, workloadNames())
	}
	it := iteration{out: &outcome{}, trace: newTracer()}
	for _, w := range []string{"paper-sweep", "live-loopback"} {
		r := &report{w: workloads[w], tracing: true, untraced: []iteration{it}, traced: []iteration{it}}
		units := make(map[string]string)
		for _, m := range r.endToEnd() {
			if m.gated {
				units[m.name] = m.unit
			}
		}
		for _, m := range spec.EndToEnd {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: end-to-end %s unit %q, program reports %q", w, m.Name, m.Unit, units[m.Name])
			}
			delete(units, m.Name)
		}
		if len(units) > 0 {
			t.Errorf("%s: gated metrics missing from BENCHMARK.json: %v", w, units)
		}
		layer := make(map[string]string)
		for _, m := range r.perLayer() {
			layer[m.name] = m.unit
		}
		for _, m := range spec.PerLayer {
			if layer[m.Name] != m.Unit {
				t.Errorf("per-layer %s unit %q, program reports %q", m.Name, m.Unit, layer[m.Name])
			}
			delete(layer, m.Name)
		}
		if len(layer) > 0 {
			t.Errorf("per-layer metrics missing from BENCHMARK.json: %v", layer)
		}
	}
}

// TestPaperCellMatchesExperiment pins the paper-sweep replay to
// experiment.RunOne: one (composer, rate) cell must give the same
// simulated outcomes.
func TestPaperCellMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two paper deployments")
	}
	const seed, rate = 3, 10
	want, err := experiment.RunOne(experiment.Config{Parallelism: 1}, "greedy", rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := &paperSweep{cells: []*paperCell{{seed: seed, composer: "greedy", rate: rate, sys: newPaperSystem(seed)}}}
	got, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if got.submitted != want.Submitted || got.composed != want.Composed ||
		got.emitted != want.Emitted || got.delivered != want.Received || got.timely != want.Timely {
		t.Fatalf("replay: submitted %d composed %d emitted %d delivered %d timely %d; experiment.RunOne: %d %d %d %d %d",
			got.submitted, got.composed, got.emitted, got.delivered, got.timely,
			want.Submitted, want.Composed, want.Emitted, want.Received, want.Timely)
	}
	if got.delays.Percentile(95) != want.DelayP95Ms {
		t.Errorf("delay p95: replay %v, experiment %v", got.delays.Percentile(95), want.DelayP95Ms)
	}
}
