package deploy

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
	"rasc.dev/rasc/internal/workload"
)

// materializing serializes every message before it enters the simulated
// network: the JSON-through-the-transport path in-process messages took
// before bodies travelled by reference, kept here as an oracle.
type materializing struct{ transport.Endpoint }

func (m materializing) Send(to transport.Addr, msg transport.Message) error {
	return m.Endpoint.Send(to, msg.Materialize())
}

// withEndpointWrap runs fn with every new deployment's endpoints wrapped.
func withEndpointWrap(wrap func(transport.Endpoint) transport.Endpoint, fn func()) {
	testWrapEndpoint = wrap
	defer func() { testWrapEndpoint = nil }()
	fn()
}

// figure6Digest runs one seeded Figure 6 style cell — the paper's 32 nodes
// and access links, eight generated requests composed by min-cost at
// 150 Kbps on the per-unit data plane — and folds every per-unit trace
// event, the engines' drop counters and every sink's counters into one
// digest.
func figure6Digest(t *testing.T) string {
	t.Helper()
	const nodes, seed, rate = 32, 2, 15
	catalog := services.Standard()
	s := NewSystem(SystemOptions{
		Nodes: nodes,
		Seed:  seed,
		Topology: netsim.PlanetLabTopology(netsim.TopologyConfig{
			Nodes: nodes, MinBps: 1.5e5, MaxBps: 1.2e6,
		}, seed),
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 0.5,
		Catalog:          catalog,
		ProcJitter:       0.2,
		HeterogeneousCPU: true,
	})
	buf := trace.NewBuffer(1 << 20)
	for _, e := range s.Engines {
		e.SetTracer(buf)
	}
	gen := workload.NewGenerator(workload.Config{
		Services: catalog.Names(), MinServices: 2, MaxServices: 5,
		RateUnits: rate, UnitBytes: 1250, MaxSubstreams: 1,
	}, seed)
	type origin struct {
		node int
		req  string
	}
	var composed []origin
	for i := 0; i < 8; i++ {
		req := gen.Next()
		done := false
		s.Engines[i].Submit(req, &core.MinCost{}, 10*time.Second, func(_ *core.ExecutionGraph, err error) {
			done = true
			if err == nil {
				composed = append(composed, origin{i, req.ID})
			}
		})
		for !done {
			s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
		}
		s.Sim.RunUntil(s.Sim.Now() + 400*time.Millisecond)
	}
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	if len(composed) == 0 {
		t.Fatal("no request composed")
	}

	h := fnv.New64a()
	for _, ev := range buf.Events() {
		fmt.Fprintf(h, "%d|%d|%s|%s|%d|%d|%d|%s\n",
			ev.At, ev.Kind, ev.Node, ev.Req, ev.Substream, ev.Stage, ev.Seq, ev.Note)
	}
	for i, e := range s.Engines {
		fmt.Fprintf(h, "eng%d|%d|%d|%d|%d\n", i, e.DropsQueueFull, e.DropsLaxity, e.DropsUplink, e.DropsDownlink)
	}
	for _, o := range composed {
		sink := s.Engines[o.node].Sink(o.req, 0)
		if sink == nil {
			t.Fatalf("no sink for %s", o.req)
		}
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d\n", o.req, s.Engines[o.node].EmittedUnits(o.req, 0),
			sink.Received, sink.OutOfOrder, sink.Timely, int64(sink.TotalDelay), int64(sink.TotalJitter), sink.Stalls)
	}
	t.Logf("composed %d/8, %d trace events", len(composed), len(buf.Events()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestByReferenceMatchesSerializedTransport pins the by-reference message
// path to the serialized one: a Figure 6 style deployment gives the same
// trace digest and sink counters whether overlay envelopes reach the
// simulated network as references or as JSON bytes.
func TestByReferenceMatchesSerializedTransport(t *testing.T) {
	byRef := figure6Digest(t)
	var serialized string
	withEndpointWrap(func(ep transport.Endpoint) transport.Endpoint { return materializing{ep} }, func() {
		serialized = figure6Digest(t)
	})
	if byRef != serialized {
		t.Fatalf("by-reference run diverged from the serialized oracle: %s vs %s", byRef, serialized)
	}
}

// auditing records the serialized form of every by-reference body at send
// time, so a test can check later that no receiver wrote through it.
type auditing struct {
	transport.Endpoint
	sent *[]sentBody
}

type sentBody struct {
	body transport.Body
	wire []byte
}

func (a auditing) Send(to transport.Addr, msg transport.Message) error {
	if msg.Body != nil {
		*a.sent = append(*a.sent, sentBody{msg.Body, msg.Body.AppendWire(nil)})
	}
	return a.Endpoint.Send(to, msg)
}

// TestDuplicatedEnvelopesStayUnmodified delivers every message twice, with
// reordering, so each by-reference envelope reaches its receiver at least
// twice: the envelopes must serialize at the end of the run exactly as
// they did when sent, i.e. no receiver wrote through a shared envelope.
func TestDuplicatedEnvelopesStayUnmodified(t *testing.T) {
	var sent []sentBody
	withEndpointWrap(func(ep transport.Endpoint) transport.Endpoint { return auditing{ep, &sent} }, func() {
		s := NewSystem(SystemOptions{
			Nodes: 12,
			Seed:  4,
			Chaos: &transport.ChaosConfig{Duplicate: 1, Reorder: 0.2, SilentDrop: true},
		})
		req := workload.NewGenerator(workload.Config{
			Services: services.Standard().Names(), MinServices: 2, MaxServices: 3, RateUnits: 10, UnitBytes: 1250,
		}, 4).Next()
		s.Engines[0].Submit(req, &core.MinCost{}, 10*time.Second, func(*core.ExecutionGraph, error) {})
		s.Sim.RunUntil(s.Sim.Now() + 8*time.Second)
		if s.Engines[0].EmittedUnits(req.ID, 0) == 0 {
			t.Fatal("request never streamed")
		}
	})
	if len(sent) == 0 {
		t.Fatal("no by-reference message was sent")
	}
	for i, sb := range sent {
		if got := sb.body.AppendWire(nil); !bytes.Equal(got, sb.wire) {
			t.Fatalf("envelope %d changed after send:\n sent %s\n now  %s", i, sb.wire, got)
		}
	}
	t.Logf("%d by-reference envelopes audited", len(sent))
}
