package main

import (
	"errors"
	"fmt"
	"time"

	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/spec"
)

// live-loopback: three live nodes in this process on 127.0.0.1 over TCP
// — a requester and one host each for filter and encrypt — streaming one
// filter→encrypt request at a fixed rate for a fixed wall window.
const (
	liveRate      = 200 // units/s
	liveUnitBytes = 500
	liveWindow    = 7 * time.Second // >= 1000 delays, so p99 has 10 beyond it
	liveDrain     = 300 * time.Millisecond
	liveSetupMax  = 30 * time.Second
	liveRefresh   = 250 * time.Millisecond
	liveReq       = "loopback"
)

type liveLoopback struct {
	nodes   []*live.Node // requester first
	started time.Time    // when the composed source began emitting
}

// setupLiveLoopback boots the nodes and submits the request until it
// composes: discovery needs the hosts' DHT registrations, which land a
// refresh interval or so after they join. Live nodes run on wall time,
// so a traced run profiles them but attaches no virtual-time buffers.
func setupLiveLoopback(seed int64, _ *tracer) (instance, error) {
	l := &liveLoopback{}
	start := func(name, bootstrap string, services ...string) (*live.Node, error) {
		n, err := live.Start(live.Config{
			Listen:          "127.0.0.1:0",
			Name:            fmt.Sprintf("perfbench-%d-%s", seed, name),
			Bootstrap:       bootstrap,
			Services:        services,
			RefreshInterval: liveRefresh,
			RecordTTL:       5 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		l.nodes = append(l.nodes, n)
		return n, nil
	}
	filter, err := start("filter", "", "filter")
	if err != nil {
		l.close()
		return nil, err
	}
	if _, err := start("encrypt", filter.Addr(), "encrypt"); err != nil {
		l.close()
		return nil, err
	}
	requester, err := start("requester", filter.Addr())
	if err != nil {
		l.close()
		return nil, err
	}
	// The requester is the first node the run reads.
	l.nodes[0], l.nodes[2] = l.nodes[2], l.nodes[0]
	req := spec.Request{
		ID:         liveReq,
		UnitBytes:  liveUnitBytes,
		Substreams: []spec.Substream{{Services: []string{"filter", "encrypt"}, Rate: liveRate}},
	}
	// Give the hosts' registrations one refresh to reach the key roots
	// the requester's join moved, so set-up time does not hinge on
	// whether the seed's node IDs moved one.
	time.Sleep(liveRefresh)
	deadline := time.Now().Add(liveSetupMax)
	for {
		_, err := requester.Submit(req, "mincost", 5*time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			l.close()
			return nil, fmt.Errorf("live-loopback: no composition within %v: %w", liveSetupMax, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	l.started = time.Now()
	// Keep every delay from here on: the sink records per-unit samples
	// into an attached histogram.
	requester.DoSync(func() {
		if sink := requester.Engine.Sink(liveReq, 0); sink != nil {
			sink.Delays = &metrics.Histogram{}
		}
	})
	return l, nil
}

func (l *liveLoopback) run() (*outcome, error) {
	time.Sleep(liveWindow)
	requester := l.nodes[0]
	var out *outcome
	requester.DoSync(func() { requester.Engine.StopSources(liveReq) })
	stopped := time.Now()
	time.Sleep(liveDrain)
	requester.DoSync(func() {
		t := requester.Engine.Throughput(liveReq, 0)
		sink := requester.Engine.Sink(liveReq, 0)
		if sink == nil || sink.Delays == nil {
			return
		}
		out = &outcome{submitted: 1, composed: 1, emitted: t.EmittedUnits, delivered: sink.Received, timely: sink.Timely}
		out.delays.Merge(sink.Delays)
	})
	if out == nil {
		return nil, errors.New("live-loopback: the requester lost its sink")
	}
	out.due = int64(stopped.Sub(l.started).Seconds() * liveRate)
	return out, nil
}

// verify checks that no unit was delivered or dropped more often than
// it was emitted; units still crossing a socket at the drain deadline
// are in flight.
func (l *liveLoopback) verify(out *outcome) {
	var emitted, delivered, dropped int64
	for _, n := range l.nodes {
		n := n
		n.DoSync(func() {
			t := n.Engine.Throughput(liveReq, 0)
			emitted += t.EmittedUnits
			delivered += t.DeliveredUnits
			dropped += t.DroppedUnits
		})
	}
	c := check{name: "conservation", ok: delivered+dropped <= emitted && emitted > 0}
	c.detail = fmt.Sprintf("delivered + dropped <= emitted (emitted %d, delivered %d, dropped %d, in flight %d)",
		emitted, delivered, dropped, emitted-delivered-dropped)
	out.checks = append(out.checks, c)
}

func (l *liveLoopback) close() {
	for _, n := range l.nodes {
		n.Close()
	}
	l.nodes = nil
}
