package tenant

import (
	"fmt"
	"testing"

	"rasc.dev/rasc/internal/spec"
)

// benchAdmission measures the admission decision latency with 1k
// concurrent tenants already holding allocations — the cost a submission
// pays at the gate before any composition work. Each iteration admits and
// releases one extra tenant.
func BenchmarkAdmission(b *testing.B) {
	g := NewGate(Config{CapacityBps: 1e9, QueueCapacity: 64})
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}
	for i := 0; i < 1000; i++ {
		app := fmt.Sprintf("app-%04d", i)
		if dec := g.Admit(app, pris[i%len(pris)], 1e6, nil); dec.State != StateAdmitted {
			b.Fatalf("seed tenant %s not admitted: %+v", app, dec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := g.Admit("probe", spec.Standard, 1e6, nil)
		if dec.State != StateAdmitted {
			b.Fatalf("probe not admitted: %+v", dec)
		}
		g.Release("probe")
	}
}

func benchDemands() []Demand {
	demands := make([]Demand, 1000)
	for i := range demands {
		demands[i] = Demand{
			App:    fmt.Sprintf("app-%04d", i),
			Bps:    float64(1+i%17) * 1e5,
			Weight: []float64{1, 2, 4}[i%3],
		}
	}
	return demands
}

// BenchmarkFairShares isolates the water-filling solve at 1k tenants.
func BenchmarkFairShares(b *testing.B) {
	demands := benchDemands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FairShares(demands, 5e8)
	}
}
