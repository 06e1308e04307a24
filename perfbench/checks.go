package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/stream"
)

// knownNondeterminism names the defect that keeps a workload's virtual
// outcomes from being a function of its seed. Its determinism check
// reports the defect instead of failing the run.
var knownNondeterminism = map[string]string{
	"control-churn": "gossip.LocalSummary (internal/gossip/border.go) sums float headroom " +
		"over the member map in iteration order, so border summaries, and every hand-off " +
		"decision read from them, vary between runs of one seed",
}

// determinismCheck compares the virtual outcomes of every same-seed
// iteration of an invocation: untraced against untraced and, in a traced
// run, traced against untraced.
func determinismCheck(name string, its []iteration) check {
	c := check{name: "determinism", ok: true}
	distinct := make(map[string]bool)
	for _, it := range its {
		distinct[it.out.fingerprint] = true
	}
	if len(distinct) == 1 {
		c.detail = fmt.Sprintf("%d same-seed iterations gave identical virtual outcomes", len(its))
		if defect, ok := knownNondeterminism[name]; ok {
			c.detail += "; the known defect did not show this time: " + defect
		}
		return c
	}
	c.ok = false
	c.detail = fmt.Sprintf("%d same-seed iterations gave %d different virtual outcomes", len(its), len(distinct))
	if defect, ok := knownNondeterminism[name]; ok {
		c.advisory = true
		c.detail += ": " + defect
	}
	return c
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload → seed → digest of its virtual outcomes.
func recordedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digestCheck compares the first iteration's virtual outcomes with the
// digest recorded for this workload and seed. A mismatch means the
// program's simulated outcomes changed; a change that moves them must say
// so and record the new digests (run with -record-digests).
func digestCheck(name string, seed int64, fingerprint string) check {
	c := check{name: "digest", ok: true}
	got := digestOf(fingerprint)
	all, err := recordedDigests()
	if err != nil {
		return check{name: "digest", detail: err.Error()}
	}
	want, ok := all[name][strconv.FormatInt(seed, 10)]
	switch {
	case !ok && knownNondeterminism[name] != "":
		c.detail = fmt.Sprintf("%s, none recorded: outcomes are not reproducible from the seed (see determinism)", got)
	case !ok:
		c.detail = fmt.Sprintf("%s, none recorded for seed %d", got, seed)
	case got != want:
		c.ok = false
		c.detail = fmt.Sprintf("simulated outcomes changed: digest %s, recorded %s", got, want)
	default:
		c.detail = fmt.Sprintf("%s matches the recorded digest", got)
	}
	return c
}

// recordDigests prints digests.json for the deterministic simulated
// workloads over a seed range "a-b".
func recordDigests(w io.Writer, seeds string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	if !ok {
		hi = lo
	}
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("bad seed range %q", seeds)
	}
	out := make(map[string]map[string]string)
	var names []string
	for n, wl := range workloads {
		if wl.simulated && knownNondeterminism[n] == "" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		out[n] = make(map[string]string)
		for s := a; s <= b; s++ {
			it, err := runIteration(workloads[n], s, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", n, s, err)
			}
			out[n][strconv.FormatInt(s, 10)] = digestOf(it.out.fingerprint)
		}
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}

// conservation checks, for each request, that every unit its source
// emitted was delivered or dropped exactly once. With exact set, the
// sources must have been stopped and the deployment drained, so nothing
// is in flight; otherwise units torn down mid-path may vanish and only
// delivered + dropped <= emitted must hold.
func conservation(engines []*stream.Engine, reqs map[string]int, exact bool) check {
	c := check{name: "conservation", ok: true}
	ids := make([]string, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var emitted, delivered, dropped int64
	flows := 0
	for _, id := range ids {
		for l := 0; l < reqs[id]; l++ {
			flows++
			var t stream.Throughput
			for _, e := range engines {
				t.Accumulate(e.Throughput(id, l))
			}
			emitted += t.EmittedUnits
			delivered += t.DeliveredUnits
			dropped += t.DroppedUnits
			gone := t.EmittedUnits - t.DeliveredUnits - t.DroppedUnits
			if gone < 0 || (exact && gone != 0) {
				if c.ok {
					c.detail = fmt.Sprintf("flow %s/%d: emitted %d, delivered %d, dropped %d; ",
						id, l, t.EmittedUnits, t.DeliveredUnits, t.DroppedUnits)
				}
				c.ok = false
			}
		}
	}
	law := "emitted = delivered + dropped after drain"
	if !exact {
		law = "delivered + dropped <= emitted; the rest was in flight or torn down"
	}
	c.detail += fmt.Sprintf("%s over %d flows (emitted %d, delivered %d, dropped %d)",
		law, flows, emitted, delivered, dropped)
	return c
}

// ledgerCheck verifies no boundary link reserves beyond its capacity.
type ledgerCheck struct {
	samples, violations int
	peak                float64
	first               string
}

func (l *ledgerCheck) observe(ledgers []*federation.Ledger) {
	l.samples++
	for _, led := range ledgers {
		for _, u := range led.Usage() {
			if u.CapacityBps <= 0 {
				continue
			}
			f := u.ReservedBps / u.CapacityBps
			if f > l.peak {
				l.peak = f
			}
			if u.ReservedBps > u.CapacityBps || u.ReservedBps < 0 {
				if l.violations == 0 {
					l.first = fmt.Sprintf("link %s reserved %.0f of %.0f bps", u.Link, u.ReservedBps, u.CapacityBps)
				}
				l.violations++
			}
		}
	}
}

func (l *ledgerCheck) result() check {
	c := check{name: "ledger", ok: l.violations == 0 && l.samples > 0}
	c.detail = fmt.Sprintf("%d samples of every boundary link, peak reservation %.4f of capacity", l.samples, l.peak)
	if l.violations > 0 {
		c.detail = fmt.Sprintf("%d oversubscribed samples, first: %s; %s", l.violations, l.first, c.detail)
	}
	return c
}

// findings prints the benchmark's standing observations about the
// program, with the numbers of this run as their evidence.
func findings(r *report) []string {
	if r.w.name != "control-churn" || len(r.untraced) == 0 {
		return nil
	}
	o := r.untraced[0].out
	return []string{
		fmt.Sprintf("gossip.false_deaths = %.0f member-dead verdicts, over every node's view from the start of "+
			"warm-up, against hosts the workload had not killed; %.0f such verdicts still stand at the end",
			o.layer["gossip.false_deaths"], o.layer["gossip.false_dead_at_end"]),
		fmt.Sprintf("tenant.capacity_bps = %.6g at start, %.6g at end (summed over the clusters' gates; "+
			"min cluster %.6g at end): false deaths release budget that is not restored when the member returns",
			o.layer["tenant.capacity_bps_start"], o.layer["tenant.capacity_bps_end"], o.layer["tenant.capacity_bps_min_end"]),
	}
}
