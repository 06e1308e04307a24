package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// report is one invocation's iterations and what they add up to.
type report struct {
	w        workload
	seed     int64
	tracing  bool
	budget   time.Duration
	untraced []iteration
	traced   []iteration
	maxRSS   float64
}

// iterations returns the untraced iterations followed by the traced ones.
func (r *report) iterations() []iteration {
	return append(append([]iteration(nil), r.untraced...), r.traced...)
}

// metric is one reported number. Gated metrics are the ones
// BENCHMARK.json bounds; they apply to every workload.
type metric struct {
	name, unit string
	value      float64
	gated      bool
	note       string
}

// over returns the median of f over the iterations.
func over(its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics from the untraced iterations:
// each is the median of its per-iteration values.
func (r *report) endToEnd() []metric {
	its := r.untraced
	m := []metric{
		{name: "setup_s", unit: "s", gated: true, note: "wall; deployment build and warm-up",
			value: over(its, func(it iteration) float64 { return it.setup.Seconds() })},
		{name: "run_wall_s", unit: "s", note: "wall; measured phase",
			value: over(its, func(it iteration) float64 { return it.wall.Seconds() })},
		{name: "run_cpu_s", unit: "s", note: "process user+sys CPU in the measured phase",
			value: over(its, func(it iteration) float64 { return it.cpu.Seconds() })},
		{name: "alloc_mb", unit: "MB", gated: true, note: "heap allocated in the measured phase",
			value: over(its, func(it iteration) float64 { return float64(it.allocBytes) / 1e6 })},
		{name: "max_rss_mb", unit: "MB", gated: true, note: "peak resident memory of the process",
			value: r.maxRSS / 1e6},
		{name: "composed_frac", unit: "ratio", note: "submits composed / attempted",
			value: over(its, func(it iteration) float64 {
				return ratio(int64(it.out.composed), int64(it.out.submitted))
			})},
		{name: "delivered_frac", unit: "ratio", note: "units delivered / emitted",
			value: over(its, func(it iteration) float64 { return ratio(it.out.delivered, it.out.emitted) })},
		{name: "timely_frac", unit: "ratio", note: "timely / delivered units",
			value: over(its, func(it iteration) float64 { return ratio(it.out.timely, it.out.delivered) })},
	}
	pct := func(name, unit, basis string, pm int, h func(*outcome) histogram) metric {
		n := int(over(its, func(it iteration) float64 { return float64(h(it.out).N()) }))
		note := fmt.Sprintf("%s; n=%d; highest percentile with >=10 samples beyond: %s", basis, n, perMille(supportedTail(n)))
		if supportedTail(n) < pm {
			note += " (this tail rests on fewer than 10 samples)"
		}
		return metric{name: name, unit: unit, note: note,
			value: over(its, func(it iteration) float64 { return h(it.out).Percentile(float64(pm) / 10) })}
	}
	delays := func(o *outcome) histogram { return &o.delays }
	composes := func(o *outcome) histogram { return &o.composes }
	if r.w.simulated {
		m = append(m,
			pct("vt_delay_p50_ms", "ms", "virtual", 500, delays),
			pct("vt_delay_p99_ms", "ms", "virtual", 990, delays),
			pct("vt_compose_p50_ms", "ms", "virtual", 500, composes),
			pct("vt_compose_p90_ms", "ms", "virtual", 900, composes))
	} else {
		m = append(m,
			pct("live_delay_p50_ms", "ms", "wall", 500, delays),
			pct("live_delay_p99_ms", "ms", "wall", 990, delays),
			metric{name: "live_emit_frac", unit: "ratio", note: "units emitted / due at the source rate",
				value: over(its, func(it iteration) float64 { return ratio(it.out.emitted, it.out.due) })})
	}
	return m
}

// histogram is the part of metrics.Histogram the report reads.
type histogram interface {
	N() int
	Percentile(p float64) float64
}

func perMille(pm int) string {
	if pm == 0 {
		return "none"
	}
	return "p" + strings.TrimSuffix(fmt.Sprintf("%.1f", float64(pm)/10), ".0")
}

// layerCPU lists the layers whose profile CPU the traced run reports, by
// package name under internal/, plus the benchmark's own frames and
// stacks with no layer.
var layerCPU = []string{
	"overlay", "dht", "discovery", "monitor", "stream", "sched", "netsim", "simnet",
	"transport", "live", "core", "mincostflow", "gossip", "tenant", "federation",
	"control", "trace", "telemetry", "deploy", "perfbench", "unattributed",
}

// perLayer computes the per-layer metrics as the mean over traced
// iterations.
func (r *report) perLayer() []metric {
	type def struct {
		name, unit string
		f          func(it iteration) float64
	}
	tel := func(name string, pairs ...string) func(iteration) float64 {
		return func(it iteration) float64 { return it.trace.tel.sum(name, pairs...) }
	}
	lay := func(name string) func(iteration) float64 {
		return func(it iteration) float64 { return it.out.layer[name] }
	}
	var defs []def
	for _, l := range layerCPU {
		l := l
		defs = append(defs, def{l + ".cpu_s", "s", func(it iteration) float64 { return it.trace.cpu.byLayer[l] }})
	}
	defs = append(defs,
		def{"other.cpu_s", "s", func(it iteration) float64 {
			rest := float64(it.trace.cpu.totalNanos) / 1e9
			for _, l := range layerCPU {
				rest -= it.trace.cpu.byLayer[l]
			}
			return math.Max(0, rest) // float residue when every sample has a listed layer
		}},
		def{"codec.json_cpu_s", "s", func(it iteration) float64 { return it.trace.cpu.json }},
		def{"runtime.gc_cpu_s", "s", func(it iteration) float64 { return it.trace.cpu.gc }},
		def{"stream.batch_units_mean", "units", func(it iteration) float64 {
			n := it.trace.tel.sum("rasc_dataplane_batch_units_count")
			if n == 0 {
				return 0
			}
			return it.trace.tel.sum("rasc_dataplane_batch_units_sum") / n
		}},
		def{"stream.dataplane_flushes", "count", tel("rasc_dataplane_flush_total")},
		def{"stream.proc_vt_ms", "ms", func(it iteration) float64 { return meanMs(it.trace.proc, it.trace.procN) }},
		def{"sched.queue_vt_ms", "ms", func(it iteration) float64 {
			return math.Max(0, meanMs(it.trace.hops.resid, it.trace.hops.residN)-meanMs(it.trace.proc, it.trace.procN))
		}},
		def{"netsim.link_vt_ms", "ms", func(it iteration) float64 { return meanMs(it.trace.hops.link, it.trace.hops.linkN) }},
		def{"sched.drops_laxity", "count", tel("rasc_stream_dropped_total", "cause", "laxity")},
		def{"sched.drops_overflow", "count", tel("rasc_stream_dropped_total", "cause", "queue-full")},
		def{"netsim.drops_congestion", "count", func(it iteration) float64 {
			return it.trace.tel.sum("rasc_stream_dropped_total", "cause", "uplink") +
				it.trace.tel.sum("rasc_stream_dropped_total", "cause", "downlink")
		}},
		def{"transport.msgs", "count", tel("rasc_transport_messages_total", "direction", "out")},
		def{"transport.bytes", "bytes", tel("rasc_transport_bytes_total", "direction", "out")},
		def{"transport.bytes_per_delivered_unit", "bytes", func(it iteration) float64 {
			if it.out.delivered == 0 {
				return 0
			}
			return it.trace.tel.sum("rasc_transport_bytes_total", "direction", "out") / float64(it.out.delivered)
		}},
		def{"transport.retries", "count", tel("rasc_transport_retries_total")},
		def{"transport.send_latency_p50_ms", "ms", func(it iteration) float64 {
			q := it.trace.tel.quantile("rasc_transport_send_latency_seconds", 0.5)
			if math.IsNaN(q) {
				return 0
			}
			return q * 1000
		}},
		def{"core.compose_calls", "count", func(it iteration) float64 { return float64(it.trace.compose.calls) }},
		def{"core.compose_busy_ms", "ms", func(it iteration) float64 {
			return float64(it.trace.compose.busy) / float64(time.Millisecond)
		}},
		def{"core.compose_infeasible", "count", func(it iteration) float64 { return float64(it.trace.compose.infeasible) }},
		def{"gossip.probes", "count", tel("rasc_gossip_probes_total")},
		def{"gossip.suspicions", "count", tel("rasc_gossip_suspicions_total")},
		def{"gossip.deaths", "count", tel("rasc_gossip_deaths_total")},
		def{"gossip.false_deaths", "count", lay("gossip.false_deaths")},
		def{"tenant.admitted", "count", tel("rasc_tenant_admissions_total", "decision", "admitted")},
		def{"tenant.rejected", "count", tel("rasc_tenant_admissions_total", "decision", "rejected")},
		def{"tenant.queued", "count", tel("rasc_tenant_admissions_total", "decision", "queued")},
		def{"tenant.preemptions", "count", tel("rasc_tenant_preemptions_total")},
		def{"tenant.recomputes", "count", tel("rasc_tenant_fair_share_recomputes_total")},
		def{"tenant.capacity_bps_start", "bps", lay("tenant.capacity_bps_start")},
		def{"tenant.capacity_bps_end", "bps", lay("tenant.capacity_bps_end")},
		def{"federation.queries", "count", tel("rasc_federation_queries_total", "role", "sent")},
		def{"federation.handoffs_ok", "count", tel("rasc_federation_handoffs_total", "result", "ok")},
		def{"federation.handoffs_failed", "count", tel("rasc_federation_handoffs_total", "result", "failed")},
		def{"federation.saturated", "count", tel("rasc_federation_handoffs_total", "result", "saturated")},
		def{"federation.handoff_success_ratio", "ratio", func(it iteration) float64 {
			ok := it.trace.tel.sum("rasc_federation_handoffs_total", "result", "ok")
			return ratio(int64(ok), int64(it.trace.tel.sum("rasc_federation_handoffs_total")))
		}},
		def{"control.events", "count", tel("rasc_control_events_total")},
		def{"control.reallocations", "count", tel("rasc_control_reallocations_total")},
		def{"control.fallbacks", "count", tel("rasc_control_fallbacks_total")},
		def{"control.failures", "count", tel("rasc_control_failures_total")},
		def{"trace.decision_vt_ms_mean", "ms", lay("trace.decision_vt_ms_mean")},
		def{"trace.events", "count", func(it iteration) float64 { return float64(it.trace.hops.events) }},
		def{"trace.evicted", "count", func(it iteration) float64 { return float64(it.trace.hops.evicted) }},
	)
	out := make([]metric, 0, len(defs)+1)
	for _, d := range defs {
		sum := 0.0
		for _, it := range r.traced {
			sum += d.f(it)
		}
		out = append(out, metric{name: d.name, unit: d.unit, value: sum / float64(len(r.traced))})
	}
	wall := func(it iteration) float64 { return it.wall.Seconds() }
	out = append(out, metric{name: "trace.overhead_frac", unit: "ratio",
		value: over(r.traced, wall)/over(r.untraced, wall) - 1,
		note:  "median traced wall / median untraced wall - 1"})
	return out
}

// checks gathers the iterations' checks, one verdict per check name
// (the first failure, else the first pass), plus the cross-iteration
// determinism and digest checks.
func (r *report) checks() []check {
	all := r.iterations()
	var out []check
	idx := make(map[string]int)
	for _, it := range all {
		for _, c := range it.out.checks {
			i, seen := idx[c.name]
			switch {
			case !seen:
				idx[c.name] = len(out)
				out = append(out, c)
			case out[i].ok && !c.ok:
				out[i] = c
			}
		}
	}
	for i := range out {
		out[i].detail = fmt.Sprintf("%s [%d iterations]", out[i].detail, len(all))
	}
	if r.w.simulated {
		out = append(out, determinismCheck(r.w.name, all), digestCheck(r.w.name, r.seed, all[0].out.fingerprint))
	}
	return out
}

func (r *report) correct() bool {
	for _, c := range r.checks() {
		if !c.ok && !c.advisory {
			return false
		}
	}
	return true
}

// benchResult is the JSON line a benchmark runner reads.
type benchResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the JSON result: with tracing off the gated end-to-end
// metrics, with tracing on the per-layer metrics. Attempted counts
// iterations; an iteration fails when one of its checks fails.
func (r *report) result() benchResult {
	res := benchResult{Correct: r.correct(), Metrics: make(map[string]jsonMetric)}
	all := r.iterations()
	res.Attempted = len(all)
	for _, it := range all {
		for _, c := range it.out.checks {
			if !c.ok && !c.advisory {
				res.Failed++
				break
			}
		}
	}
	ms := r.endToEnd()
	if r.tracing {
		ms = r.perLayer()
	}
	for _, m := range ms {
		if m.gated || r.tracing {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return res
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench %s\n", r.w.name)
	for _, kv := range r.header() {
		fmt.Fprintf(w, "%-12s %s\n", kv[0], kv[1])
	}
	fmt.Fprintln(w, "\niterations (setup_s run_wall_s run_cpu_s alloc_mb)")
	for i, it := range r.iterations() {
		kind := "untraced"
		if it.trace != nil {
			kind = "traced"
		}
		fmt.Fprintf(w, "  %2d %-8s %9.4f %9.4f %9.4f %9.2f\n", i, kind,
			it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), float64(it.allocBytes)/1e6)
	}
	fmt.Fprintln(w, "\nend-to-end (median over untraced iterations; * = bounded in BENCHMARK.json)")
	for _, m := range r.endToEnd() {
		printMetric(w, m)
	}
	if r.tracing {
		fmt.Fprintln(w, "\nper-layer (mean per traced iteration)")
		for _, m := range r.perLayer() {
			printMetric(w, m)
		}
	}
	fmt.Fprintln(w, "\nchecks")
	for _, c := range r.checks() {
		verdict := "ok"
		switch {
		case !c.ok && c.advisory:
			verdict = "KNOWN-DEFECT"
		case !c.ok:
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-12s %-13s %s\n", verdict, c.name, c.detail)
	}
	if f := findings(r); len(f) > 0 {
		fmt.Fprintln(w, "\nfindings")
		for _, line := range f {
			fmt.Fprintln(w, "  "+line)
		}
	}
	fmt.Fprintln(w)
}

func printMetric(w io.Writer, m metric) {
	star := " "
	if m.gated {
		star = "*"
	}
	fmt.Fprintf(w, " %s %-34s %14.6g %-6s %s\n", star, m.name, m.value, m.unit, m.note)
}

// header records what the numbers were measured on.
func (r *report) header() [][2]string {
	mode := "untraced"
	if r.tracing {
		mode = fmt.Sprintf("traced (%d untraced + %d traced iterations)", len(r.untraced), len(r.traced))
	}
	return [][2]string{
		{"workload", r.w.name},
		{"seed", fmt.Sprint(r.seed)},
		{"commit", commit()},
		{"go", runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"cpu", cpuModel()},
		{"mode", mode},
		{"iterations", fmt.Sprintf("%d untraced, %d traced (budget %v)", len(r.untraced), len(r.traced), r.budget)},
	}
}

// commit is the VCS revision the binary was built from, when it was
// built inside a checkout that records one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = " (modified)"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a VCS checkout)"
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
