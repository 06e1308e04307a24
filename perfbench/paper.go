package main

import (
	"fmt"
	"strings"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	reqgen "rasc.dev/rasc/internal/workload"
)

// The paper's evaluation with experiment.Config's defaults: 32 nodes,
// every composer at every rate, 12 requests each, a 30 s virtual
// measurement window. The measured phase replays experiment.RunOne cell
// by cell, serially; TestPaperCellMatchesExperiment pins the replay to
// it. Each (composer, rate) cell runs on its own seed derived from the
// workload seed: one topology swings the sweep's cost by ±15%, twelve
// average it out.
var (
	paperComposers = []string{"mincost", "greedy", "random"}
	paperRates     = []int{5, 10, 15, 20} // units/s of 10 kbit: 50..200 Kbps
)

const (
	paperNodes      = 32
	paperRequests   = 12
	paperSubmitGap  = 400 * time.Millisecond
	paperMeasureFor = 30 * time.Second
	paperRPCTimeout = 10 * time.Second
	drainFor        = 5 * time.Second
)

// paperCell is one (composer, rate) deployment of the sweep.
type paperCell struct {
	seed     int64
	composer string
	rate     int
	sys      *deploy.System
	live     []paperApp
}

type paperApp struct {
	origin int
	req    spec.Request
}

type paperSweep struct {
	tr    *tracer
	cells []*paperCell
}

// setupPaperSweep builds every cell's deployment: the overlay joins and
// the services register in the DHT.
func setupPaperSweep(seed int64, tr *tracer) (instance, error) {
	p := &paperSweep{tr: tr}
	n := int64(len(paperRates) * len(paperComposers))
	for _, rate := range paperRates {
		for _, name := range paperComposers {
			s := seed*n + int64(len(p.cells))
			p.cells = append(p.cells, &paperCell{seed: s, composer: name, rate: rate, sys: newPaperSystem(s)})
		}
	}
	return p, nil
}

// newPaperSystem is experiment.RunOne's deployment with the fetch stats
// source.
func newPaperSystem(seed int64) *deploy.System {
	return deploy.NewSystem(deploy.SystemOptions{
		Nodes: paperNodes,
		Seed:  seed,
		Topology: netsim.PlanetLabTopology(netsim.TopologyConfig{
			Nodes: paperNodes, MinBps: 1.5e5, MaxBps: 1.2e6,
		}, seed),
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 0.5,
		Catalog:          services.Standard(),
		ServicesPerNode:  5,
		ProcJitter:       0.2,
		TimelyFactor:     1,
		KeepDelaySamples: true,
		HeterogeneousCPU: true,
		Gossip:           gossip.Config{ProbeTimeout: 500 * time.Millisecond},
	})
}

func (p *paperSweep) run() (*outcome, error) {
	out := &outcome{}
	var fp strings.Builder
	for _, c := range p.cells {
		if err := p.runCell(c, out, &fp); err != nil {
			return nil, err
		}
	}
	out.fingerprint = fp.String()
	return out, nil
}

// runCell replays experiment.RunOne on one prebuilt deployment.
func (p *paperSweep) runCell(c *paperCell, out *outcome, fp *strings.Builder) error {
	composer, err := core.ByName(c.composer)
	if err != nil {
		return err
	}
	composer = p.tr.wrap(composer)
	sys := c.sys
	p.tr.attach(sys.Engines)
	gen := reqgen.NewGenerator(reqgen.Config{
		Services:      services.Standard().Names(),
		MinServices:   2,
		MaxServices:   5,
		RateUnits:     c.rate,
		UnitBytes:     1250,
		MaxSubstreams: 1,
	}, c.seed*1_000_003+int64(c.rate))
	fmt.Fprintf(fp, "cell %s rate=%d seed=%d\n", c.composer, c.rate, c.seed)
	for i := 0; i < paperRequests; i++ {
		origin := i % paperNodes
		req := gen.Next()
		out.submitted++
		done, ok := false, false
		started := sys.Sim.Now()
		var composedAt time.Duration
		sys.Engines[origin].Submit(req, composer, paperRPCTimeout, func(_ *core.ExecutionGraph, err error) {
			done, ok = true, err == nil
			composedAt = sys.Sim.Now()
		})
		deadline := sys.Sim.Now() + 2*paperRPCTimeout
		for !done && sys.Sim.Now() < deadline {
			sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
		}
		fmt.Fprintf(fp, "submit %s ok=%v at=%d\n", req.ID, ok, composedAt-started)
		if ok {
			out.composed++
			out.composes.Add(msOf(composedAt - started))
			c.live = append(c.live, paperApp{origin: origin, req: req})
		}
		sys.Sim.RunUntil(sys.Sim.Now() + paperSubmitGap)
	}
	sys.Sim.RunUntil(sys.Sim.Now() + paperMeasureFor)
	for _, a := range c.live {
		eng := sys.Engines[a.origin]
		for l := range a.req.Substreams {
			emitted := eng.EmittedUnits(a.req.ID, l)
			out.emitted += emitted
			sink := eng.Sink(a.req.ID, l)
			if sink == nil {
				fmt.Fprintf(fp, "flow %s/%d emitted=%d no sink\n", a.req.ID, l, emitted)
				continue
			}
			out.delivered += sink.Received
			out.timely += sink.Timely
			addDelays(&out.delays, sink.Delays)
			fmt.Fprintf(fp, "flow %s/%d emitted=%d received=%d timely=%d ooo=%d delay=%d jitter=%d\n",
				a.req.ID, l, emitted, sink.Received, sink.Timely, sink.OutOfOrder, sink.TotalDelay, sink.TotalJitter)
		}
	}
	p.tr.observeProc(sys.Engines, sys.Sim.Now())
	return nil
}

// verify stops every cell's sources, drains the deployment and checks
// unit conservation flow by flow.
func (p *paperSweep) verify(out *outcome) {
	var checks []check
	for _, c := range p.cells {
		reqs := make(map[string]int)
		for _, a := range c.live {
			c.sys.Engines[a.origin].StopSources(a.req.ID)
			reqs[a.req.ID] = len(a.req.Substreams)
		}
		c.sys.Sim.RunUntil(c.sys.Sim.Now() + drainFor)
		checks = append(checks, conservation(c.sys.Engines, reqs, true))
	}
	out.checks = append(out.checks, mergeChecks(checks))
}

func (p *paperSweep) close() { p.cells = nil }

// mergeChecks folds per-deployment verdicts of one check into one: the
// first failure if any, else the first pass.
func mergeChecks(cs []check) check {
	for _, c := range cs {
		if !c.ok {
			c.detail = fmt.Sprintf("%d deployments; %s", len(cs), c.detail)
			return c
		}
	}
	c := cs[0]
	c.detail = fmt.Sprintf("%d deployments; first: %s", len(cs), c.detail)
	return c
}

func addDelays(dst *metrics.Histogram, src *metrics.Histogram) {
	if src != nil {
		dst.Merge(src)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
