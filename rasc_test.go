package rasc

import (
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
)

func TestNewDefaults(t *testing.T) {
	sys := New(WithSeed(1))
	if sys.Nodes() != 32 {
		t.Fatalf("Nodes = %d, want 32", sys.Nodes())
	}
	for i := 0; i < sys.Nodes(); i++ {
		if len(sys.ServicesAt(i)) != 5 {
			t.Fatalf("node %d offers %d services, want 5", i, len(sys.ServicesAt(i)))
		}
	}
}

func TestSubmitAndStream(t *testing.T) {
	sys := New(WithNodes(16), WithSeed(2))
	req := Request{
		ID:        "t1",
		UnitBytes: 1250,
		Substreams: []Substream{
			{Services: []string{"filter", "encrypt"}, Rate: 8},
		},
	}
	comp, err := sys.Submit(0, req, ComposerMinCost)
	if err != nil {
		t.Fatal(err)
	}
	if comp.NumHosts() < 1 || len(comp.Placements()) < 2 {
		t.Fatalf("placements = %v", comp.Placements())
	}
	sys.Run(10 * time.Second)
	s := comp.Stats()
	if s.Emitted < 60 {
		t.Fatalf("emitted = %d", s.Emitted)
	}
	if s.DeliveredFraction() < 0.7 {
		t.Fatalf("delivered fraction = %g", s.DeliveredFraction())
	}
	if s.TimelyFraction() <= 0 || s.MeanDelay <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSubmitAllComposers(t *testing.T) {
	for _, composer := range []Composer{ComposerMinCost, ComposerMinCostNoSplit, ComposerGreedy, ComposerRandom, ComposerLP} {
		sys := New(WithNodes(12), WithSeed(3))
		req := Request{
			ID:         "t-" + composer.String(),
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
		}
		comp, err := sys.Submit(1, req, composer)
		if err != nil {
			t.Fatalf("%s: %v", composer, err)
		}
		sys.Run(5 * time.Second)
		if comp.Stats().Received == 0 {
			t.Fatalf("%s: nothing delivered", composer)
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	req := Request{
		ID:         "bad",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
	}
	if _, err := sys.Submit(99, req, ComposerMinCost); err == nil {
		t.Fatal("bad origin accepted")
	}
	if _, err := sys.Submit(0, req, "nonsense"); err == nil {
		t.Fatal("bad composer accepted")
	}
	huge := Request{
		ID:         "huge",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 100000}},
	}
	if _, err := sys.Submit(0, huge, ComposerMinCost); !errors.Is(err, core.ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

func TestCompositionStop(t *testing.T) {
	sys := New(WithNodes(12), WithSeed(5))
	req := Request{
		ID:         "stopme",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
	}
	comp, err := sys.Submit(0, req, ComposerMinCost)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3 * time.Second)
	comp.Stop()
	s1 := comp.Stats()
	sys.Run(5 * time.Second)
	s2 := comp.Stats()
	if s2.Emitted != s1.Emitted {
		t.Fatalf("source kept emitting after Stop: %d -> %d", s1.Emitted, s2.Emitted)
	}
}

func TestNodeReport(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(6))
	req := Request{
		ID:         "mon",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 10}},
	}
	if _, err := sys.Submit(0, req, ComposerMinCost); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Second)
	rep := sys.NodeReport(0)
	if rep.OutBpsUsed <= 0 {
		t.Fatal("origin monitor shows no outbound traffic")
	}
	if rep.OutBpsCap <= 0 || rep.InBpsCap <= 0 {
		t.Fatal("capacities missing from report")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() DeliveryStats {
		sys := New(WithNodes(12), WithSeed(77))
		req := Request{
			ID:         "det",
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter", "compress"}, Rate: 7}},
		}
		comp, err := sys.Submit(2, req, ComposerMinCost)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(10 * time.Second)
		return comp.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestCatalogs(t *testing.T) {
	std := StandardCatalog()
	if len(std) != 10 {
		t.Fatalf("standard catalog has %d services, want 10", len(std))
	}
	ext := ExtendedCatalog()
	if len(ext) <= len(std) {
		t.Fatal("extended catalog must add services")
	}
	if ext["downsample"].RateRatio != 0.5 {
		t.Fatal("downsample ratio wrong")
	}
}
