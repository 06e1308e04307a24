package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
)

// control-churn: federated deployments with the catalog partitioned
// across clusters, tenancy with a per-host ledger, adaptation and
// gossip, each fed an open loop of short-lived applications while two
// hosts die. One iteration runs churnDeployments deployments, each from
// its own seed derived from the workload seed: a single deployment's
// cost swings with when its tenancy budget collapses (see README), and
// the total over several is steadier.
const (
	churnDeployments = 4
	churnNodes       = 24
	churnClusters    = 3
	churnApps        = 150
	churnMeanGap     = 400 * time.Millisecond
	churnWarmup      = 30 * time.Second
	churnWindow      = 100 * time.Second
)

// churnKills are the non-border hosts (borders are nodes 0..2) the
// workload fails, with the virtual time into the window of each death.
var churnKills = []struct {
	node int
	at   time.Duration
}{{10, 20 * time.Second}, {17, 40 * time.Second}}

// churnMix weights the priority classes Critical/Standard/BestEffort.
var churnMix = [3]float64{4, 2, 1}

type churnApp struct {
	req      spec.Request
	at       time.Duration // arrival, from the window's start
	lifetime time.Duration
	origin   int

	// status is composed, queued, promoted (queued, then composed),
	// rejected or failed; empty while the submit is outstanding.
	status     string
	composeLat time.Duration
}

type controlChurn struct {
	cells []*churnCell
}

// churnCell is one deployment of the workload.
type churnCell struct {
	seed   int64
	sys    *deploy.System
	apps   []*churnApp
	ledger ledgerCheck
	tr     *tracer
	// capStart is the tenancy budget summed over the clusters' gates
	// right after the deployment was built.
	capStart float64
	// killed holds the hosts the workload failed so far; falseDeaths
	// counts member-dead verdicts against any other host.
	killed      map[overlay.ID]bool
	falseDeaths int
}

// partition splits the catalog round-robin across the clusters: cluster
// k announces only group k.
func partition(k int) [][]string {
	groups := make([][]string, k)
	for i, n := range services.Standard().Names() {
		groups[i%k] = append(groups[i%k], n)
	}
	return groups
}

func setupControlChurn(seed int64, tr *tracer) (instance, error) {
	c := &controlChurn{}
	for j := int64(0); j < churnDeployments; j++ {
		c.cells = append(c.cells, newChurnCell(seed*churnDeployments+j, tr))
	}
	return c, nil
}

// newChurnCell builds one deployment and warms it up: border summaries
// and monitoring digests converge before the first submission.
func newChurnCell(seed int64, tr *tracer) *churnCell {
	groups := partition(churnClusters)
	sys := deploy.NewSystem(deploy.SystemOptions{
		Nodes: churnNodes,
		Seed:  seed,
		// The paper's access-link capacities, with sites aligned to
		// clusters as a federated deployment lays them out.
		Topology: netsim.PlanetLabTopology(netsim.TopologyConfig{
			Nodes: churnNodes, Sites: churnClusters, MinBps: 1.5e5, MaxBps: 1.2e6,
		}, seed),
		ServicesPerNode:  5,
		KeepDelaySamples: true,
		Federation: &deploy.FederationOptions{
			Clusters:        churnClusters,
			ClusterServices: groups,
		},
		Tenancy:    &tenant.Config{PerHostLedger: true},
		Adaptation: &stream.AdaptationConfig{Composer: tr.wrap(&core.MinCost{})},
	})
	c := &churnCell{seed: seed, sys: sys, apps: churnWorkload(seed, groups), tr: tr, killed: make(map[overlay.ID]bool)}
	for _, g := range sys.Gates {
		c.capStart += g.CapacityBps()
	}
	for _, g := range sys.Gossip {
		g.OnMemberDead(func(info overlay.NodeInfo) {
			if !c.killed[info.ID] {
				c.falseDeaths++
			}
		})
	}
	tr.attach(sys.Engines)
	sys.Sim.RunUntil(sys.Sim.Now() + churnWarmup)
	return c
}

// churnWorkload draws the open-loop application sequence from the seed:
// arrival times, chains from one cluster's partition, rates, priorities
// and lifetimes. Origins rotate over the nodes.
func churnWorkload(seed int64, groups [][]string) []*churnApp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 41))
	apps := make([]*churnApp, churnApps)
	var at time.Duration
	total := churnMix[0] + churnMix[1] + churnMix[2]
	for i := range apps {
		at += time.Duration(rng.ExpFloat64() * float64(churnMeanGap))
		g := groups[rng.Intn(len(groups))]
		n := 1 + rng.Intn(2)
		chain := make([]string, 0, n)
		for _, j := range rng.Perm(len(g))[:n] {
			chain = append(chain, g[j])
		}
		pri := spec.BestEffort
		switch u := rng.Float64() * total; {
		case u < churnMix[0]:
			pri = spec.Critical
		case u < churnMix[0]+churnMix[1]:
			pri = spec.Standard
		}
		apps[i] = &churnApp{
			req: spec.Request{
				ID:         fmt.Sprintf("churn-%d", i),
				UnitBytes:  1250,
				Priority:   pri,
				Substreams: []spec.Substream{{Services: chain, Rate: 2 + rng.Intn(6)}},
			},
			at:       at,
			lifetime: 10*time.Second + time.Duration(rng.Int63n(int64(30*time.Second))),
			origin:   i % churnNodes,
		}
	}
	return apps
}

func (c *controlChurn) run() (*outcome, error) {
	out := &outcome{}
	var fp strings.Builder
	agg := churnLayers{capMinEnd: math.Inf(1)}
	for _, cell := range c.cells {
		fmt.Fprintf(&fp, "deployment seed=%d\n", cell.seed)
		cell.run(out, &fp, &agg)
	}
	out.fingerprint = fp.String()
	out.layer = map[string]float64{
		"gossip.false_deaths":         float64(agg.falseDeaths),
		"gossip.false_dead_at_end":    float64(agg.falseDeadAtEnd),
		"tenant.capacity_bps_start":   agg.capStart,
		"tenant.capacity_bps_end":     agg.capEnd,
		"tenant.capacity_bps_min_end": agg.capMinEnd,
	}
	if agg.decisions > 0 {
		out.layer["trace.decision_vt_ms_mean"] = msOf(agg.decisionVT) / float64(agg.decisions)
	}
	return out, nil
}

func (c *churnCell) run(out *outcome, fp *strings.Builder, agg *churnLayers) {
	sys := c.sys
	start := sys.Sim.Now()
	dead := make(map[int]bool)
	for _, k := range churnKills {
		k := k
		sys.Clock.After(k.at, func() {
			dead[k.node] = true
			c.killed[sys.Nodes[k.node].Info().ID] = true
			sys.Kill(k.node)
		})
	}
	for _, a := range c.apps {
		a := a
		sys.Clock.After(a.at, func() { c.submit(a, dead) })
	}
	var sample func()
	sample = func() {
		c.ledger.observe(sys.Ledgers)
		if sys.Sim.Now() < start+churnWindow {
			sys.Clock.After(time.Second, sample)
		}
	}
	sample()
	sys.Sim.RunUntil(start + churnWindow)

	out.submitted += len(c.apps)
	for _, a := range c.apps {
		eng := sys.Engines[a.origin]
		t := eng.Throughput(a.req.ID, 0)
		if a.status == "queued" && t.EmittedUnits > 0 {
			a.status = "promoted"
		}
		if a.status == "composed" || a.status == "promoted" {
			out.composed++
		}
		if a.status == "composed" {
			out.composes.Add(msOf(a.composeLat))
		}
		out.emitted += t.EmittedUnits
		fmt.Fprintf(fp, "%s %s lat=%d emitted=%d", a.req.ID, a.status, a.composeLat, t.EmittedUnits)
		if sink := eng.Sink(a.req.ID, 0); sink != nil {
			out.delivered += sink.Received
			out.timely += sink.Timely
			addDelays(&out.delays, sink.Delays)
			fmt.Fprintf(fp, " received=%d timely=%d delay=%d", sink.Received, sink.Timely, sink.TotalDelay)
		}
		fp.WriteByte('\n')
	}
	l := c.layers()
	fmt.Fprintf(fp, "false_deaths=%d false_dead_at_end=%d capacity=%s..%s decisions=%d decision_vt=%d\n",
		l.falseDeaths, l.falseDeadAtEnd, fmtFloat(l.capStart), fmtFloat(l.capEnd), l.decisions, l.decisionVT)
	agg.add(l)
	c.tr.observeProc(sys.Engines, sys.Sim.Now())
}

// submit fires one arrival at its origin (the next live node when the
// origin has died) whatever happened to earlier applications, and stops
// the application when its lifetime ends.
func (c *churnCell) submit(a *churnApp, dead map[int]bool) {
	sys := c.sys
	for dead[a.origin] {
		a.origin = (a.origin + 1) % churnNodes
	}
	eng := sys.Engines[a.origin]
	at := sys.Sim.Now()
	eng.Submit(a.req, c.tr.wrap(&core.MinCost{}), paperRPCTimeout, func(_ *core.ExecutionGraph, err error) {
		a.composeLat = sys.Sim.Now() - at
		switch {
		case err == nil:
			a.status = "composed"
		case errors.Is(err, tenant.ErrAdmissionQueued):
			a.status = "queued"
		case errors.Is(err, tenant.ErrAdmissionRejected):
			a.status = "rejected"
		default:
			a.status = "failed"
		}
	})
	sys.Clock.After(a.lifetime, func() {
		for _, ac := range eng.CompositionSnapshot() {
			if ac.App == a.req.ID {
				eng.Teardown(ac.Graph, paperRPCTimeout)
				return
			}
		}
	})
}

// churnLayers is the deployment state the findings rest on — membership
// verdicts against hosts that never died and the tenancy budget — plus
// the adaptation decisions' virtual latency, summed over deployments
// (capMinEnd is the minimum over every cluster's gate).
type churnLayers struct {
	falseDeaths, falseDeadAtEnd int
	capStart, capEnd, capMinEnd float64
	decisions                   int
	decisionVT                  time.Duration
}

func (a *churnLayers) add(b churnLayers) {
	a.falseDeaths += b.falseDeaths
	a.falseDeadAtEnd += b.falseDeadAtEnd
	a.capStart += b.capStart
	a.capEnd += b.capEnd
	a.capMinEnd = math.Min(a.capMinEnd, b.capMinEnd)
	a.decisions += b.decisions
	a.decisionVT += b.decisionVT
}

func (c *churnCell) layers() churnLayers {
	sys := c.sys
	l := churnLayers{falseDeaths: c.falseDeaths, capStart: c.capStart, capMinEnd: math.Inf(1)}
	for _, g := range sys.Gossip {
		for _, m := range g.Members() {
			if m.State == gossip.StateDead && !c.killed[m.Info.ID] {
				l.falseDeadAtEnd++
			}
		}
	}
	for _, g := range sys.Gates {
		l.capEnd += g.CapacityBps()
		l.capMinEnd = math.Min(l.capMinEnd, g.CapacityBps())
	}
	for _, d := range sys.Journal.Decisions() {
		l.decisions++
		l.decisionVT += d.CompletedAt - d.TriggeredAt
	}
	return l
}

func (c *controlChurn) verify(out *outcome) {
	var ledgers, flows []check
	for _, cell := range c.cells {
		cell.ledger.observe(cell.sys.Ledgers)
		reqs := make(map[string]int, len(cell.apps))
		for _, a := range cell.apps {
			reqs[a.req.ID] = 1
		}
		ledgers = append(ledgers, cell.ledger.result())
		flows = append(flows, conservation(cell.sys.Engines, reqs, false))
	}
	out.checks = append(out.checks, mergeChecks(ledgers), mergeChecks(flows))
}

func (c *controlChurn) close() { c.cells = nil }

// fmtFloat renders a float at full precision for fingerprints.
func fmtFloat(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
