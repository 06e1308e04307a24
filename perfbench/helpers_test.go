package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/trace"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	cases := []struct {
		name     string
		stack    []string // leaf first
		layer    string
		json, gc bool
	}{
		{"stdlib charged to calling layer",
			[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal",
				"rasc.dev/rasc/internal/stream.(*Engine).onData", "rasc.dev/rasc/internal/overlay.(*Node).deliver", "runtime.goexit"},
			"stream", true, false},
		{"innermost internal frame wins",
			[]string{"runtime.mallocgc", "rasc.dev/rasc/internal/telemetry.(*Counter).Inc",
				"rasc.dev/rasc/internal/sched.(*LLF).Push"},
			"telemetry", false, true},
		{"solver under the composer",
			[]string{"rasc.dev/rasc/internal/mincostflow.(*Solver).dijkstra", "rasc.dev/rasc/internal/core.(*MinCost).Compose"},
			"mincostflow", false, false},
		{"background GC has no layer",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			"unattributed", false, true},
		{"benchmark's own frames",
			[]string{"sort.Float64s", "main.median", "main.main"},
			"perfbench", false, false},
		{"empty stack", nil, "unattributed", false, false},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.layer)
		}
		if got := onStack(c.stack, isJSONFrame); got != c.json {
			t.Errorf("%s: json = %v, want %v", c.name, got, c.json)
		}
		if got := onStack(c.stack, isGCFrame); got != c.gc {
			t.Errorf("%s: gc = %v, want %v", c.name, got, c.gc)
		}
	}
	b := bucketProfile([]profileSample{
		{stack: cases[0].stack, nanos: 30e6},
		{stack: cases[1].stack, nanos: 10e6},
		{stack: cases[3].stack, nanos: 20e6},
	})
	if b.byLayer["stream"] != 0.03 || b.byLayer["telemetry"] != 0.01 || b.byLayer["unattributed"] != 0.02 {
		t.Errorf("byLayer = %v", b.byLayer)
	}
	if b.json != 0.03 || math.Abs(b.gc-0.03) > 1e-12 || b.totalNanos != 60e6 {
		t.Errorf("json %v gc %v total %v", b.json, b.gc, b.totalNanos)
	}
}

//go:noinline
func burnCPU(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseProfileOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var burn int64
	for _, s := range samples {
		if onStack(s.stack, func(f string) bool { return strings.HasSuffix(f, ".burnCPU") }) {
			burn += s.nanos
			if l := layerOf(s.stack); l != "perfbench" {
				t.Errorf("burnCPU sample charged to %q", l)
			}
		}
	}
	if burn < int64(100*time.Millisecond) {
		t.Fatalf("profile attributes %v to burnCPU over a 300ms burn (%d samples)", time.Duration(burn), len(samples))
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750},
		{129, 900}, {144, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if perMille(999) != "p99.9" || perMille(900) != "p90" || perMille(0) != "none" {
		t.Errorf("perMille: %s %s %s", perMille(999), perMille(900), perMille(0))
	}
}

// TestTelemetryDeltaAcrossWorkloads runs two "workloads" against one
// registry, as consecutive workloads share the process-wide registry: each
// delta must hold only its own workload's increments.
func TestTelemetryDeltaAcrossWorkloads(t *testing.T) {
	reg := telemetry.NewRegistry()
	msgs := reg.CounterVec("rasc_test_messages_total", "test", "transport", "direction")
	lat := reg.Histogram("rasc_test_latency_seconds", "test", []float64{0.001, 0.01, 0.1})
	odd := reg.CounterVec("rasc_test_odd_total", "test", "name")

	s0 := scrape(reg.String())
	msgs.With("mem", "out").Add(5)
	msgs.With("mem", "in").Add(3)
	odd.With(`a "quoted", name`).Inc()
	for i := 0; i < 10; i++ {
		lat.Observe(0.005)
	}
	s1 := scrape(reg.String())
	msgs.With("mem", "out").Add(7)
	msgs.With("tcp", "out").Add(2)
	for i := 0; i < 10; i++ {
		lat.Observe(0.05)
	}
	s2 := scrape(reg.String())

	a, b := diffScrapes(s0, s1), diffScrapes(s1, s2)
	if got := a.sum("rasc_test_messages_total", "direction", "out"); got != 5 {
		t.Errorf("workload A out = %v, want 5", got)
	}
	if got := a.sum("rasc_test_messages_total"); got != 8 {
		t.Errorf("workload A all = %v, want 8", got)
	}
	if got := b.sum("rasc_test_messages_total", "direction", "out"); got != 9 {
		t.Errorf("workload B out = %v, want 9 (A's increments must not bleed in)", got)
	}
	if got := b.sum("rasc_test_messages_total", "transport", "mem", "direction", "in"); got != 0 {
		t.Errorf("workload B mem/in = %v, want 0", got)
	}
	if got := a.sum("rasc_test_odd_total", "name", `a "quoted", name`); got != 1 {
		t.Errorf("escaped label value: %v, want 1", got)
	}
	// A's observations all sit in (0.001, 0.01], B's in (0.01, 0.1].
	if q := a.quantile("rasc_test_latency_seconds", 0.5); q <= 0.001 || q > 0.01 {
		t.Errorf("workload A median = %v", q)
	}
	if q := b.quantile("rasc_test_latency_seconds", 0.5); q <= 0.01 || q > 0.1 {
		t.Errorf("workload B median = %v", q)
	}
	if got := b.sum("rasc_test_latency_seconds_count"); got != 10 {
		t.Errorf("workload B count = %v, want 10", got)
	}
	if q := diffScrapes(s2, s2).quantile("rasc_test_latency_seconds", 0.5); !math.IsNaN(q) {
		t.Errorf("empty delta quantile = %v, want NaN", q)
	}
}

func TestHopStats(t *testing.T) {
	b := trace.NewBuffer(16)
	ms := time.Millisecond
	for _, e := range []trace.Event{
		{At: 0, Kind: trace.KindEmit, Req: "r", Stage: -1, Seq: 1},
		{At: 10 * ms, Kind: trace.KindArrive, Req: "r", Stage: 0, Seq: 1},
		{At: 15 * ms, Kind: trace.KindProcess, Req: "r", Stage: 0, Seq: 1},
		{At: 15 * ms, Kind: trace.KindForward, Req: "r", Stage: 0, Seq: 1},
		{At: 40 * ms, Kind: trace.KindDeliver, Req: "r", Stage: 1, Seq: 1},
		{At: 1 * ms, Kind: trace.KindEmit, Req: "r", Stage: -1, Seq: 2},
		{At: 2 * ms, Kind: trace.KindDrop, Req: "r", Stage: -1, Seq: 2, Note: "uplink"},
	} {
		b.Append(e)
	}
	var h hopStats
	h.add(b)
	if h.linkN != 2 || meanMs(h.link, h.linkN) != 17.5 {
		t.Errorf("link: n=%d mean=%v, want 2 hops of mean 17.5ms", h.linkN, meanMs(h.link, h.linkN))
	}
	if h.residN != 1 || meanMs(h.resid, h.residN) != 5 {
		t.Errorf("residence: n=%d mean=%v, want 1 of 5ms", h.residN, meanMs(h.resid, h.residN))
	}
	if h.events != 7 || h.evicted != 0 {
		t.Errorf("events %d evicted %d", h.events, h.evicted)
	}
}

func TestDeterminismAndDigestChecks(t *testing.T) {
	same := []iteration{{out: &outcome{fingerprint: "a"}}, {out: &outcome{fingerprint: "a"}}}
	diff := []iteration{{out: &outcome{fingerprint: "a"}}, {out: &outcome{fingerprint: "b"}}}
	if c := determinismCheck("paper-sweep", same); !c.ok {
		t.Errorf("identical outcomes: %+v", c)
	}
	if c := determinismCheck("paper-sweep", diff); c.ok || c.advisory {
		t.Errorf("paper-sweep drift must fail the run: %+v", c)
	}
	if c := determinismCheck("control-churn", diff); c.ok || !c.advisory || !strings.Contains(c.detail, "gossip.LocalSummary") {
		t.Errorf("control-churn drift must name the known defect: %+v", c)
	}
	all, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	want := all["paper-sweep"]["1"]
	if want == "" {
		t.Fatal("no recorded paper-sweep digest for seed 1")
	}
	if c := digestCheck("paper-sweep", 1, "not the recorded outcomes"); c.ok || !strings.Contains(c.detail, "simulated outcomes changed") {
		t.Errorf("mismatch: %+v", c)
	}
	if c := digestCheck("paper-sweep", -7, "x"); !c.ok {
		t.Errorf("unrecorded seed must pass: %+v", c)
	}
}
