package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
)

// stream-batched: one four-substream request streamed for a fixed
// virtual window over fast links on the batched, sharded data plane, so
// the stream engine, scheduler and network model do nearly all the work.
// One iteration streams on batchedDeployments deployments, each built
// from its own seed derived from the workload seed, so the cost does not
// hang on one topology's placements.
const (
	batchedDeployments = 8
	batchedNodes       = 12
	batchedSubstreams  = 4
	batchedRate        = 400 // units/s per substream
	batchedWindow      = 8 * time.Second
	batchedReq         = "batched"
)

type streamBatched struct {
	cells []*batchedCell
}

type batchedCell struct {
	seed int64
	sys  *deploy.System
	req  spec.Request
	tr   *tracer
}

func setupStreamBatched(seed int64, tr *tracer) (instance, error) {
	b := &streamBatched{}
	for j := int64(0); j < batchedDeployments; j++ {
		s := seed*batchedDeployments + j
		b.cells = append(b.cells, &batchedCell{seed: s, sys: newBatchedSystem(s), req: batchedRequest(s), tr: tr})
		tr.attach(b.cells[j].sys.Engines)
	}
	return b, nil
}

func newBatchedSystem(seed int64) *deploy.System {
	return deploy.NewSystem(deploy.SystemOptions{
		Nodes: batchedNodes,
		Seed:  seed,
		Topology: netsim.PlanetLabTopology(netsim.TopologyConfig{
			Nodes: batchedNodes, MinBps: 2e8, MaxBps: 5e8,
		}, seed),
		DataPlane:        stream.DefaultDataPlane(),
		KeepDelaySamples: true,
	})
}

// batchedRequest draws each substream's two-service chain from the seed,
// among the services one simulated CPU can run at the substream's rate,
// so the units flow rather than drop.
func batchedRequest(seed int64) spec.Request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 29))
	var names []string
	for _, n := range services.Standard().Names() {
		if services.Standard()[n].ProcPerUnit*batchedRate < time.Second/2 {
			names = append(names, n)
		}
	}
	req := spec.Request{ID: batchedReq, UnitBytes: 1250}
	for l := 0; l < batchedSubstreams; l++ {
		perm := rng.Perm(len(names))
		req.Substreams = append(req.Substreams, spec.Substream{
			Services: []string{names[perm[0]], names[perm[1]]},
			Rate:     batchedRate,
		})
	}
	return req
}

func (b *streamBatched) run() (*outcome, error) {
	out := &outcome{}
	var fp strings.Builder
	for _, c := range b.cells {
		fmt.Fprintf(&fp, "deployment seed=%d\n", c.seed)
		if err := c.run(out, &fp); err != nil {
			return nil, err
		}
	}
	out.fingerprint = fp.String()
	return out, nil
}

func (b *batchedCell) run(out *outcome, fp *strings.Builder) error {
	sys := b.sys
	out.submitted++
	done := false
	var serr error
	start := sys.Sim.Now()
	var composedAt time.Duration
	sys.Engines[0].Submit(b.req, b.tr.wrap(&core.MinCost{}), paperRPCTimeout, func(_ *core.ExecutionGraph, err error) {
		done, serr, composedAt = true, err, sys.Sim.Now()
	})
	for deadline := start + 2*paperRPCTimeout; !done && sys.Sim.Now() < deadline; {
		sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		return errors.New("stream-batched: submit did not complete")
	}
	if serr != nil {
		return fmt.Errorf("stream-batched: compose: %w", serr)
	}
	out.composed++
	out.composes.Add(msOf(composedAt - start))
	sys.Sim.RunUntil(composedAt + batchedWindow)
	fmt.Fprintf(fp, "composed at=%d\n", composedAt-start)
	eng := sys.Engines[0]
	for l := range b.req.Substreams {
		t := eng.Throughput(batchedReq, l)
		sink := eng.Sink(batchedReq, l)
		if sink == nil {
			return fmt.Errorf("stream-batched: no sink for substream %d", l)
		}
		out.emitted += t.EmittedUnits
		out.delivered += sink.Received
		out.timely += sink.Timely
		addDelays(&out.delays, sink.Delays)
		fmt.Fprintf(fp, "flow %d emitted=%d received=%d timely=%d ooo=%d delay=%d jitter=%d\n",
			l, t.EmittedUnits, sink.Received, sink.Timely, sink.OutOfOrder, sink.TotalDelay, sink.TotalJitter)
	}
	b.tr.observeProc(sys.Engines, sys.Sim.Now())
	return nil
}

func (b *streamBatched) verify(out *outcome) {
	var checks []check
	for _, c := range b.cells {
		c.sys.Engines[0].StopSources(batchedReq)
		c.sys.Sim.RunUntil(c.sys.Sim.Now() + drainFor)
		checks = append(checks, conservation(c.sys.Engines, map[string]int{batchedReq: batchedSubstreams}, true))
	}
	out.checks = append(out.checks, mergeChecks(checks))
}

func (b *streamBatched) close() { b.cells = nil }
