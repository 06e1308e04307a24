package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/experiment"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/tenant"
)

// benchResult is one machine-readable benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchReport is the BENCH_compose.json schema: composition micro-benches
// plus the wall clock of a one-seed figure sweep.
type benchReport struct {
	GoVersion             string        `json:"go_version"`
	GoMaxProcs            int           `json:"gomaxprocs"`
	Parallelism           int           `json:"parallelism"`
	Benchmarks            []benchResult `json:"benchmarks"`
	SweepCells            int           `json:"sweep_cells"`
	SweepWallClockSeconds float64       `json:"sweep_wall_clock_seconds"`
}

func record(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
}

// benchComposeInput mirrors the root bench_test.go fixture: `hosts`
// candidates per stage across `stages` services at the given rate.
func benchComposeInput(hosts, stages, rate int) core.Input {
	mk := func(i int) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.HashID(fmt.Sprintf("h%d", i)), Addr: "sim://x"}
	}
	chain := make([]string, stages)
	for j := range chain {
		chain[j] = fmt.Sprintf("s%d", j)
	}
	in := core.Input{
		Request: spec.Request{
			ID: "bench", UnitBytes: 1250,
			Substreams: []spec.Substream{{Services: chain, Rate: rate}},
		},
		Source:       mk(1000),
		Dest:         mk(1001),
		SourceReport: monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		DestReport:   monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		Candidates:   map[string][]core.Candidate{},
		Rand:         rand.New(rand.NewSource(1)),
	}
	var cands []core.Candidate
	for h := 0; h < hosts; h++ {
		cands = append(cands, core.Candidate{
			Info:   mk(h),
			Report: monitor.Report{InBpsCap: 2e5, OutBpsCap: 2e5, DropRatio: float64(h%5) * 0.01},
		})
	}
	for _, svc := range chain {
		in.Candidates[svc] = cands
	}
	return in
}

// admissionReport is the BENCH_admission.json schema: the gate's decision
// latency with a large concurrent tenant population.
type admissionReport struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Tenants    int           `json:"tenants"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// runAdmissionBenchJSON measures the admission-control decision path at
// 1k concurrent applications — the per-submission cost the gate adds in
// front of composition — and writes the report to path.
func runAdmissionBenchJSON(path string) error {
	const tenants = 1000
	report := admissionReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Tenants:    tenants,
	}
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}
	seed := func() *tenant.Gate {
		g := tenant.NewGate(tenant.Config{CapacityBps: 1e9, QueueCapacity: 64})
		for i := 0; i < tenants; i++ {
			g.Admit(fmt.Sprintf("app-%04d", i), pris[i%len(pris)], 1e6, nil)
		}
		return g
	}

	// An admitted probe joins the water-fill structure and settles the
	// standing caps; its release leaves it again. One join plus one leave
	// per iteration against the full population.
	g := seed()
	report.Benchmarks = append(report.Benchmarks, record("Admission/1000tenants",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dec := g.Admit("probe", spec.Standard, 1e6, nil); dec.State != tenant.StateAdmitted {
					b.Fatalf("probe not admitted: %+v", dec)
				}
				g.Release("probe")
			}
		})))

	// A rejection is the cheap verdict: the candidate's share falls below
	// its floor and no lower-priority tenant is evictable.
	full := tenant.NewGate(tenant.Config{CapacityBps: 1e9, QueueCapacity: -1})
	for i := 0; i < tenants; i++ {
		full.Admit(fmt.Sprintf("app-%04d", i), spec.Critical, 1e6, nil)
	}
	report.Benchmarks = append(report.Benchmarks, record("AdmissionReject/1000tenants",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dec := full.Admit("probe", spec.BestEffort, 1e9, nil); dec.State != tenant.StateRejected {
					b.Fatalf("probe not rejected: %+v", dec)
				}
			}
		})))

	demands := make([]tenant.Demand, tenants)
	for i := range demands {
		demands[i] = tenant.Demand{
			App:    fmt.Sprintf("app-%04d", i),
			Bps:    float64(1+i%17) * 1e5,
			Weight: []float64{1, 2, 4}[i%3],
		}
	}
	report.Benchmarks = append(report.Benchmarks, record("FairShares/1000demands",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tenant.FairShares(demands, 5e8)
			}
		})))

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runBenchJSON measures the composition fast path and writes the report
// to path. The sweep honours the -parallel flag so before/after files
// capture both the single-core solver wins and the fan-out win.
func runBenchJSON(path string, parallelism int) error {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	report := benchReport{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: parallelism,
	}

	composeIn := benchComposeInput(16, 3, 20)
	mc := &core.MinCost{}
	report.Benchmarks = append(report.Benchmarks, record("MinCostCompose/16hosts-3stages",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mc.Compose(composeIn); err != nil {
					b.Fatal(err)
				}
			}
		})))

	pruned := &core.MinCost{TopK: 4}
	report.Benchmarks = append(report.Benchmarks, record("MinCostCompose/topk4",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pruned.Compose(composeIn); err != nil {
					b.Fatal(err)
				}
			}
		})))

	scaling := &core.MinCost{Solver: "scaling"}
	report.Benchmarks = append(report.Benchmarks, record("MinCostCompose/scaling",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scaling.Compose(composeIn); err != nil {
					b.Fatal(err)
				}
			}
		})))

	sweepCfg := experiment.Config{
		Seeds:       []int64{1},
		MeasureFor:  20 * time.Second,
		Parallelism: parallelism,
	}
	start := time.Now()
	res, err := experiment.Run(sweepCfg)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	report.SweepCells = len(res.Runs)
	report.SweepWallClockSeconds = time.Since(start).Seconds()

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
