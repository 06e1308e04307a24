package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/trace"
)

// traceCapacity bounds each per-unit event buffer. A workload emitting
// more events keeps the most recent ones (counted in trace.evicted).
const traceCapacity = 1 << 18

// tracer instruments one traced iteration from outside the program: a
// CPU profile and a telemetry scrape around the measured phase, per-unit
// event buffers attached through Engine.SetTracer, and a timing wrapper
// around the composer handed to Submit. A nil tracer instruments nothing.
type tracer struct {
	prof    bytes.Buffer
	before  map[string]series
	tel     telemetryDelta
	cpu     cpuBreakdown
	buffers []*trace.Buffer
	hops    hopStats
	compose composeMeter
	// proc and procN accumulate monitored processing time over
	// processed units.
	proc  time.Duration
	procN int64
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) start() error {
	t.before = scrape(telemetry.Default().String())
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// stop ends the profile and folds everything recorded into the tracer.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	t.tel = diffScrapes(t.before, scrape(telemetry.Default().String()))
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	t.cpu = bucketProfile(samples)
	for _, b := range t.buffers {
		t.hops.add(b)
	}
	t.buffers = nil
	return nil
}

// attach gives one deployment's engines a shared event buffer. Each
// deployment gets its own, because request IDs repeat across them.
func (t *tracer) attach(engines []*stream.Engine) {
	if t == nil {
		return
	}
	b := trace.NewBuffer(traceCapacity)
	for _, e := range engines {
		e.SetTracer(b)
	}
	t.buffers = append(t.buffers, b)
}

// observeProc folds in the engines' monitored mean processing time per
// component, weighted by units processed.
func (t *tracer) observeProc(engines []*stream.Engine, now time.Duration) {
	if t == nil {
		return
	}
	for _, e := range engines {
		for _, c := range e.Monitor.Report(now).Components {
			t.proc += time.Duration(c.Processed) * c.MeanProc
			t.procN += c.Processed
		}
	}
}

// wrap times every composition the composer performs.
func (t *tracer) wrap(c core.Composer) core.Composer {
	if t == nil {
		return c
	}
	tc := timedComposer{inner: c, m: &t.compose}
	if dc, ok := c.(core.DeltaComposer); ok {
		// Keep incremental reallocation available to the control plane.
		return timedDeltaComposer{timedComposer: tc, delta: dc}
	}
	return tc
}

// composeMeter counts composer calls and the wall time spent in them.
type composeMeter struct {
	calls, infeasible int64
	busy              time.Duration
}

func (m *composeMeter) observe(start time.Time, err error) {
	m.busy += time.Since(start)
	m.calls++
	if errors.Is(err, core.ErrNoFeasiblePlacement) {
		m.infeasible++
	}
}

type timedComposer struct {
	inner core.Composer
	m     *composeMeter
}

func (c timedComposer) Name() string { return c.inner.Name() }

func (c timedComposer) Compose(in core.Input) (*core.ExecutionGraph, error) {
	start := time.Now()
	g, err := c.inner.Compose(in)
	c.m.observe(start, err)
	return g, err
}

type timedDeltaComposer struct {
	timedComposer
	delta core.DeltaComposer
}

func (c timedDeltaComposer) ComposeDelta(in core.Input, prev *core.ExecutionGraph, degraded map[overlay.ID]bool, affected []int) (*core.ExecutionGraph, error) {
	start := time.Now()
	g, err := c.delta.ComposeDelta(in, prev, degraded, affected)
	c.m.observe(start, err)
	return g, err
}

// hopStats splits the virtual time of traced units into link time (a
// unit leaving one stage until it reaches the next) and component
// residence (arrival at a component until its processing completed,
// which is queue wait plus processing).
type hopStats struct {
	link, resid     time.Duration
	linkN, residN   int64
	events, evicted int64
}

func (h *hopStats) add(b *trace.Buffer) {
	type key struct {
		req          string
		sub, stage   int
		seq          int64
		arrivedStage bool
	}
	h.events += b.Total()
	h.evicted += b.Evicted()
	at := make(map[key]time.Duration)
	for _, e := range b.Events() {
		switch e.Kind {
		case trace.KindEmit, trace.KindForward:
			at[key{e.Req, e.Substream, e.Stage, e.Seq, false}] = e.At
		case trace.KindArrive, trace.KindDeliver:
			if left, ok := at[key{e.Req, e.Substream, e.Stage - 1, e.Seq, false}]; ok {
				h.link += e.At - left
				h.linkN++
			}
			if e.Kind == trace.KindArrive {
				at[key{e.Req, e.Substream, e.Stage, e.Seq, true}] = e.At
			}
		case trace.KindProcess:
			if arrived, ok := at[key{e.Req, e.Substream, e.Stage, e.Seq, true}]; ok {
				h.resid += e.At - arrived
				h.residN++
			}
		}
	}
}

func meanMs(total time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(time.Millisecond)
}
