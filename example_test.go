package rasc_test

import (
	"fmt"
	"time"

	"rasc.dev/rasc"
)

// ExampleNew builds a small deterministic deployment and reports
// its size.
func ExampleNew() {
	sys := rasc.New(rasc.WithNodes(8), rasc.WithSeed(1))
	fmt.Println(sys.Nodes(), "nodes")
	// Output: 8 nodes
}

// ExampleSystem_Submit composes an application and inspects its placement.
func ExampleSystem_Submit() {
	sys := rasc.New(rasc.WithNodes(16), rasc.WithSeed(42))
	req := rasc.Request{
		ID:        "example",
		UnitBytes: 1250,
		Substreams: []rasc.Substream{
			{Services: []string{"filter", "transcode"}, Rate: 10},
		},
	}
	comp, err := sys.Submit(0, req, rasc.ComposerMinCost)
	if err != nil {
		fmt.Println("rejected:", err)
		return
	}
	fmt.Println("stages placed:", len(comp.Placements()))
	// Output: stages placed: 2
}

// ExampleComposition_Stats streams for a while and reads delivery metrics.
func ExampleComposition_Stats() {
	sys := rasc.New(rasc.WithNodes(16), rasc.WithSeed(42))
	req := rasc.Request{
		ID:        "example",
		UnitBytes: 1250,
		Substreams: []rasc.Substream{
			{Services: []string{"filter"}, Rate: 10},
		},
	}
	comp, _ := sys.Submit(0, req, rasc.ComposerMinCost)
	sys.Run(10 * time.Second)
	s := comp.Stats()
	fmt.Println("delivered more than 50 units:", s.Received > 50)
	// Output: delivered more than 50 units: true
}

// ExampleSystem_EnableTracing shows per-unit timeline reconstruction.
func ExampleSystem_EnableTracing() {
	sys := rasc.New(rasc.WithNodes(12), rasc.WithSeed(7))
	buf := sys.EnableTracing(100_000)
	req := rasc.Request{
		ID:        "traced",
		UnitBytes: 1250,
		Substreams: []rasc.Substream{
			{Services: []string{"filter", "encrypt"}, Rate: 10},
		},
	}
	if _, err := sys.Submit(0, req, rasc.ComposerMinCost); err != nil {
		fmt.Println("rejected:", err)
		return
	}
	sys.Run(5 * time.Second)
	tl := buf.Timeline("traced", 0, 20)
	fmt.Println("unit 20 recorded events:", len(tl) >= 4)
	// Output: unit 20 recorded events: true
}
