package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rasc.dev/rasc/internal/metrics"
)

// workload is one named benchmark workload. Every iteration builds a
// fresh deployment with setup (timed as set-up) and then runs the
// measured phase; verify drains the deployment and checks its invariants
// outside the timed window.
type workload struct {
	name string
	// simulated workloads run on virtual time: their outcomes are a pure
	// function of the seed, so the digest and determinism checks apply.
	simulated bool
	setup     func(seed int64, tr *tracer) (instance, error)
}

// instance is one built deployment of a workload.
type instance interface {
	// run is the measured phase.
	run() (*outcome, error)
	// verify checks the deployment's invariants after run, appending to
	// out.checks. It may advance the simulation (to drain in-flight
	// units) and is never timed.
	verify(out *outcome)
	close()
}

var workloads = map[string]workload{
	"paper-sweep":    {name: "paper-sweep", simulated: true, setup: setupPaperSweep},
	"stream-batched": {name: "stream-batched", simulated: true, setup: setupStreamBatched},
	"control-churn":  {name: "control-churn", simulated: true, setup: setupControlChurn},
	"live-loopback":  {name: "live-loopback", setup: setupLiveLoopback},
}

// outcome is what one measured phase produced: the modelled system's
// results (virtual time for simulated workloads, wall time for live),
// plus layer values read through public APIs at its end.
type outcome struct {
	submitted, composed        int
	emitted, delivered, timely int64
	// delays holds one end-to-end delay per delivered unit and composes
	// one submit-to-composed latency per composed submit, in ms.
	delays, composes metrics.Histogram
	// due is the number of units the live source owed at its rate.
	due int64
	// fingerprint renders every virtual outcome at full precision; equal
	// seeds must give equal fingerprints.
	fingerprint string
	checks      []check
	// layer holds per-layer values the workload read from deployment
	// APIs (gossip membership, gate totals, coordinator stats).
	layer map[string]float64
}

// check is one correctness verdict. An advisory check reports a known
// defect and does not make the run incorrect.
type check struct {
	name     string
	ok       bool
	advisory bool
	detail   string
}

// iteration is one set-up plus measured phase.
type iteration struct {
	setup, wall, cpu time.Duration
	allocBytes       uint64
	out              *outcome
	trace            *tracer
}

// runIteration builds the workload, runs its measured phase and verifies
// it. The heap is collected before set-up and before the measured phase,
// so neither pays for the other's garbage.
func runIteration(w workload, seed int64, tr *tracer) (iteration, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(seed, tr)
	if err != nil {
		return iteration{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	it := iteration{setup: time.Since(t0), trace: tr}
	runtime.GC()
	if tr != nil {
		if err := tr.start(); err != nil {
			return iteration{}, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, start := ms.TotalAlloc, processCPU(), time.Now()
	out, err := inst.run()
	it.wall = time.Since(start)
	it.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	it.allocBytes = ms.TotalAlloc - alloc0
	if tr != nil {
		if terr := tr.stop(); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		return iteration{}, err
	}
	inst.verify(out)
	it.out = out
	return it, nil
}

// runWorkload repeats iterations while the next one, judged by the last,
// still fits in the budget. Simulated workloads run at least two, so the
// determinism check always has a pair. A traced run spends the first half
// of the budget untraced and the rest traced; the overhead is the ratio of
// their median wall times.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	rep := &report{w: w, seed: seed, tracing: traced, budget: budget}
	start := time.Now()
	untracedEnd, minUntraced := budget, 1
	if traced {
		untracedEnd = budget / 2
	} else if w.simulated {
		minUntraced = 2
	}
	repeat := func(its *[]iteration, tr func() *tracer, min int, end time.Duration) error {
		var last time.Duration
		for len(*its) < min || time.Since(start)+last <= end {
			t0 := time.Now()
			it, err := runIteration(w, seed, tr())
			if err != nil {
				return err
			}
			*its = append(*its, it)
			last = time.Since(t0)
		}
		return nil
	}
	if err := repeat(&rep.untraced, func() *tracer { return nil }, minUntraced, untracedEnd); err != nil {
		return nil, err
	}
	if traced {
		if err := repeat(&rep.traced, newTracer, 1, budget); err != nil {
			return nil, err
		}
	}
	rep.maxRSS = maxRSSBytes()
	return rep, nil
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentiles are the percentiles a report may quote, in per mille.
var tailPercentiles = []int{999, 990, 950, 900, 750, 500}

// supportedTail returns the highest percentile (in per mille) that has at
// least ten of n samples beyond it, or 0 when not even the median has.
// A tail quoted above it rests on fewer than ten samples.
func supportedTail(n int) int {
	for _, pm := range tailPercentiles {
		if n*(1000-pm)/1000 >= 10 {
			return pm
		}
	}
	return 0
}

// digestOf hashes a fingerprint to the short form digests.json records.
func digestOf(fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	return fmt.Sprintf("%016x", h.Sum64())
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
