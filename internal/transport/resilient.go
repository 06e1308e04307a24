package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// batchType marks a coalesced frame: its payload is a sequence of
// wire-encoded Messages (see wire.go) packed by a Resilient sender and
// unpacked transparently by the receiving Resilient before the application
// handler runs.
const batchType = "transport.batch"

// ResilientConfig tunes a Resilient endpoint. The zero value selects the
// defaults noted on each field.
type ResilientConfig struct {
	// QueueLen bounds each peer's send queue; Send returns ErrBacklog
	// when it is full (default 1024).
	QueueLen int
	// MaxBatch is the most messages coalesced into one wire frame
	// (default 64).
	MaxBatch int
	// MaxBatchBytes bounds a batch's estimated wire size (default 256 KiB).
	MaxBatchBytes int
	// SendDeadline is each message's time budget from enqueue: messages
	// still undelivered past it are dropped rather than retried forever
	// (default 5s).
	SendDeadline time.Duration
	// MaxRetries is how many times a failed batch is retried before its
	// messages are dropped and the failure counts toward the breaker
	// (default 4).
	MaxRetries int
	// RetryBase is the first retry's backoff delay; each subsequent retry
	// doubles it up to RetryMax, with ±50% jitter (defaults 20ms, 1s).
	RetryBase, RetryMax time.Duration
	// IdleTimeout reaps a peer whose queue stayed empty this long —
	// sender goroutine exits and any pooled connection is dropped —
	// provided its breaker is closed (default 60s).
	IdleTimeout time.Duration
	// Breaker tunes the per-peer circuit breaker.
	Breaker BreakerConfig
	// Seed makes retry jitter reproducible; 0 seeds from the wall clock.
	Seed int64
	// OnBreakerChange, when set, observes every breaker transition. It is
	// invoked from a dedicated notifier goroutine in transition order and
	// must not block for long; notifications are dropped when more than
	// 256 are pending.
	OnBreakerChange func(peer Addr, state BreakerState)
}

func (c *ResilientConfig) defaults() {
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 256 << 10
	}
	if c.SendDeadline <= 0 {
		c.SendDeadline = 5 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 20 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	c.Breaker.defaults()
}

// connDropper is implemented by inner endpoints that pool outbound
// connections (TCPEndpoint); a Resilient drops the pooled connection when
// it reaps an idle peer.
type connDropper interface{ DropConn(to Addr) }

// breakerEvent is one transition handed to the notifier goroutine.
type breakerEvent struct {
	peer  Addr
	state BreakerState
}

// Resilient wraps an Endpoint with a per-peer delivery pipeline: Send
// enqueues onto a bounded per-peer queue and returns immediately; a
// dedicated sender goroutine per peer coalesces queued control messages
// into batch frames, retries failed sends with exponential backoff and
// jitter, and trips a circuit breaker after repeated failures so a sick
// peer fails fast instead of back-pressuring the caller. Datagram-flagged
// messages ride the same queue but are sent individually and never
// retried, preserving their loss-tolerant contract; because they report no
// outcome to the breaker they are rejected outright whenever the breaker
// is not closed, leaving recovery probing to control traffic.
//
// Delivery of control messages is at-least-once: a batch whose write
// succeeded at the transport but was lost before the peer processed it is
// retried, so handlers may observe duplicates after connection failures.
// Peers idle longer than IdleTimeout are reaped (their pooled connection
// closed) and re-created on demand by the next Send.
type Resilient struct {
	inner Endpoint
	cfg   ResilientConfig

	mu     sync.Mutex
	peers  map[Addr]*rpeer
	closed bool

	done   chan struct{}
	notifq chan breakerEvent
	wg     sync.WaitGroup
}

var _ Endpoint = (*Resilient)(nil)

// queued is one message waiting in a peer's send queue.
type queuedMsg struct {
	msg Message
	at  time.Time
}

// rpeer is the per-destination pipeline: queue, sender goroutine, breaker.
type rpeer struct {
	to Addr
	q  chan queuedMsg

	bmu sync.Mutex
	b   *breaker
}

// NewResilient wraps inner. Close the Resilient, not the inner endpoint;
// Close tears both down.
func NewResilient(inner Endpoint, cfg ResilientConfig) *Resilient {
	cfg.defaults()
	r := &Resilient{
		inner:  inner,
		cfg:    cfg,
		peers:  make(map[Addr]*rpeer),
		done:   make(chan struct{}),
		notifq: make(chan breakerEvent, 256),
	}
	r.wg.Add(1)
	go r.notifyLoop()
	return r
}

// Addr returns the inner endpoint's address.
func (r *Resilient) Addr() Addr { return r.inner.Addr() }

// SetHandler installs the inbound handler, transparently unpacking batch
// frames packed by the peer's Resilient sender.
func (r *Resilient) SetHandler(h Handler) {
	r.inner.SetHandler(func(from Addr, msg Message) {
		if msg.Type != batchType {
			h(from, msg)
			return
		}
		readBatch(msg.Payload, func(m Message) { h(from, m) })
	})
}

// SetDropHandler passes through to the inner endpoint.
func (r *Resilient) SetDropHandler(h Handler) { r.inner.SetDropHandler(h) }

// Send enqueues msg for the destination and returns immediately. It fails
// fast with ErrPeerDown while the peer's breaker is open, and with
// ErrBacklog when the peer's queue is full (the message is dropped).
// Delivery errors discovered later are absorbed by the retry pipeline.
func (r *Resilient) Send(to Addr, msg Message) error {
	// Serialize up front: queued messages are batched by wire size and
	// outlive the caller's hold on the body.
	msg = msg.Materialize()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	p, ok := r.peers[to]
	if !ok {
		p = r.newPeer(to)
		r.peers[to] = p
	}
	// Fail fast while the breaker is open; an expired open window admits
	// this message as the half-open probe. Datagrams never claim the probe
	// slot: they are sent without retry and never report an outcome to the
	// breaker, so a datagram probe would leave the slot claimed forever —
	// any non-closed state rejects them instead. The closed-state fast
	// path skips allow()'s clock read: reading the clock is the hot path's
	// single biggest cost and a closed breaker never consults it.
	p.bmu.Lock()
	closedBreaker := p.b.state == BreakerClosed
	allowed := closedBreaker || (!msg.Datagram && p.b.allow(time.Now()))
	probe := allowed && !closedBreaker
	p.bmu.Unlock()
	if !allowed {
		r.mu.Unlock()
		telResDropped.With("breaker-open").Inc()
		return ErrPeerDown
	}
	// Enqueue under r.mu so the idle reaper (which also holds r.mu)
	// cannot retire the peer between lookup and enqueue. The gauge update
	// also stays under r.mu so Close's drain of abandoned queues cannot
	// interleave with it.
	select {
	case p.q <- queuedMsg{msg: msg, at: time.Now()}:
		telResQueueDepth.Inc()
		r.mu.Unlock()
		return nil
	default:
		r.mu.Unlock()
		if probe {
			// The admitted probe was never enqueued; hand the slot back
			// so the breaker is not stuck waiting for an outcome that can
			// never arrive.
			p.bmu.Lock()
			p.b.abortProbe()
			p.bmu.Unlock()
		}
		telResDropped.With("queue-full").Inc()
		return ErrBacklog
	}
}

// State returns the peer's breaker state (BreakerClosed for unknown
// peers, which have nothing queued and nothing failing).
func (r *Resilient) State(to Addr) BreakerState {
	r.mu.Lock()
	p, ok := r.peers[to]
	r.mu.Unlock()
	if !ok {
		return BreakerClosed
	}
	p.bmu.Lock()
	defer p.bmu.Unlock()
	return p.b.state
}

// PeerStates snapshots every tracked peer's breaker state.
func (r *Resilient) PeerStates() map[Addr]BreakerState {
	r.mu.Lock()
	peers := make([]*rpeer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.mu.Unlock()
	out := make(map[Addr]BreakerState, len(peers))
	for _, p := range peers {
		p.bmu.Lock()
		out[p.to] = p.b.state
		p.bmu.Unlock()
	}
	return out
}

// SickPeers lists the peers whose breaker is currently not closed: links
// the transport has recent first-hand evidence against. The membership
// layer can suspect them ahead of its own probe timeouts.
func (r *Resilient) SickPeers() []Addr {
	var out []Addr
	for addr, st := range r.PeerStates() {
		if st != BreakerClosed {
			out = append(out, addr)
		}
	}
	return out
}

// Close drains nothing: queued messages are discarded, sender goroutines
// stopped, and the inner endpoint closed.
func (r *Resilient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	peers := make([]*rpeer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.mu.Unlock()
	close(r.done)
	err := r.inner.Close()
	r.wg.Wait()
	// The sender goroutines are gone, so whatever is still queued is
	// abandoned and each peer's breaker state is final. Settle the gauges,
	// or endpoint churn leaves them permanently inflated.
	for _, p := range peers {
		if n := len(p.q); n > 0 {
			telResQueueDepth.Add(-float64(n))
		}
		p.bmu.Lock()
		st := p.b.state
		p.bmu.Unlock()
		telResBreakerPeers.With(st.String()).Dec()
	}
	return err
}

// newPeer spawns the per-destination pipeline. Caller holds r.mu.
func (r *Resilient) newPeer(to Addr) *rpeer {
	p := &rpeer{to: to, q: make(chan queuedMsg, r.cfg.QueueLen)}
	p.b = newBreaker(r.cfg.Breaker, func(from, state BreakerState) {
		telResBreakerPeers.With(from.String()).Dec()
		telResBreakerPeers.With(state.String()).Inc()
		telResBreakerTransitions.With(state.String()).Inc()
		select {
		case r.notifq <- breakerEvent{peer: to, state: state}:
		default: // notifier saturated: drop rather than block the pipeline
		}
	})
	telResBreakerPeers.With(BreakerClosed.String()).Inc()
	r.wg.Add(1)
	go r.sendLoop(p)
	return p
}

// notifyLoop delivers breaker transitions to the configured observer in
// order, off the send path.
func (r *Resilient) notifyLoop() {
	defer r.wg.Done()
	for {
		select {
		case ev := <-r.notifq:
			if r.cfg.OnBreakerChange != nil {
				r.cfg.OnBreakerChange(ev.peer, ev.state)
			}
		case <-r.done:
			return
		}
	}
}

// sendLoop is a peer's sender goroutine: collect a batch, flush it,
// repeat; retire the peer after IdleTimeout of quiet.
func (r *Resilient) sendLoop(p *rpeer) {
	defer r.wg.Done()
	rng := r.newJitterRand(p.to)
	idle := time.NewTimer(r.cfg.IdleTimeout)
	defer idle.Stop()
	for {
		select {
		case qm := <-p.q:
			r.flush(p, rng, r.collect(p, qm))
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(r.cfg.IdleTimeout)
		case <-idle.C:
			if r.reapIfIdle(p) {
				return
			}
			idle.Reset(r.cfg.IdleTimeout)
		case <-r.done:
			return
		}
	}
}

// collect drains the peer queue (without blocking) into a batch bounded by
// MaxBatch and MaxBatchBytes, starting from first.
func (r *Resilient) collect(p *rpeer, first queuedMsg) []queuedMsg {
	batch := []queuedMsg{first}
	bytes := first.msg.WireSize()
	for len(batch) < r.cfg.MaxBatch && bytes < r.cfg.MaxBatchBytes {
		select {
		case qm := <-p.q:
			batch = append(batch, qm)
			bytes += qm.msg.WireSize()
		default:
			return batch
		}
	}
	return batch
}

// flush delivers a collected batch: control messages coalesced with
// retry/backoff, datagrams individually without retry.
func (r *Resilient) flush(p *rpeer, rng *rand.Rand, batch []queuedMsg) {
	telResQueueDepth.Add(-float64(len(batch)))
	var ctrl, dgram []queuedMsg
	for _, qm := range batch {
		if qm.msg.Datagram {
			dgram = append(dgram, qm)
		} else {
			ctrl = append(ctrl, qm)
		}
	}
	if len(ctrl) > 0 {
		r.flushCtrl(p, rng, ctrl)
	}
	if len(dgram) == 0 {
		return
	}
	now := time.Now()
	for _, qm := range dgram {
		if r.expired(qm, now) {
			telResDropped.With("deadline").Inc()
			continue
		}
		if err := r.inner.Send(p.to, qm.msg); err != nil {
			telResDropped.With("datagram-error").Inc()
			continue
		}
		telResSendLatency.ObserveDuration(now.Sub(qm.at))
	}
}

func (r *Resilient) expired(qm queuedMsg, now time.Time) bool {
	return now.Sub(qm.at) > r.cfg.SendDeadline
}

// flushCtrl sends the control portion of a batch as one coalesced frame
// (or bare for a single message), retrying failures with exponential
// backoff and jitter, and records the outcome in the peer's breaker.
func (r *Resilient) flushCtrl(p *rpeer, rng *rand.Rand, ctrl []queuedMsg) {
	for attempt := 0; ; attempt++ {
		// Shed messages whose time budget ran out while queued or during
		// earlier retries (one clock read per attempt, not per message).
		now := time.Now()
		live := ctrl[:0]
		for _, qm := range ctrl {
			if r.expired(qm, now) {
				telResDropped.With("deadline").Inc()
				continue
			}
			live = append(live, qm)
		}
		ctrl = live
		if len(ctrl) == 0 {
			// Everything was shed before a send attempt: no outcome will
			// reach the breaker, so release the half-open probe slot in
			// case one of the shed messages had claimed it.
			p.bmu.Lock()
			p.b.abortProbe()
			p.bmu.Unlock()
			return
		}
		err := r.sendCtrl(p.to, ctrl)
		if err == nil {
			now = time.Now()
			for _, qm := range ctrl {
				telResSendLatency.ObserveDuration(now.Sub(qm.at))
			}
			telResBatchSize.Observe(float64(len(ctrl)))
			p.bmu.Lock()
			p.b.success()
			p.bmu.Unlock()
			return
		}
		if errors.Is(err, ErrClosed) {
			telResDropped.With("closed").Add(uint64(len(ctrl)))
			p.bmu.Lock()
			p.b.abortProbe()
			p.bmu.Unlock()
			return
		}
		if attempt >= r.cfg.MaxRetries {
			telResDropped.With("retries-exhausted").Add(uint64(len(ctrl)))
			p.bmu.Lock()
			p.b.failure(time.Now())
			p.bmu.Unlock()
			return
		}
		telResRetries.Inc()
		if !r.sleep(backoff(r.cfg, rng, attempt)) {
			return // endpoint closed while backing off
		}
	}
}

// sendCtrl writes the messages as one frame: bare for a single message, a
// batch envelope otherwise.
func (r *Resilient) sendCtrl(to Addr, ctrl []queuedMsg) error {
	if len(ctrl) == 1 {
		return r.inner.Send(to, ctrl[0].msg)
	}
	size := 0
	for _, qm := range ctrl {
		size += qm.msg.WireSize()
	}
	return r.inner.Send(to, Message{Type: batchType, Payload: appendBatch(make([]byte, 0, size), ctrl)})
}

// backoff is the attempt'th retry delay: RetryBase doubled per attempt,
// capped at RetryMax, with ±50% jitter so retry storms decorrelate.
func backoff(cfg ResilientConfig, rng *rand.Rand, attempt int) time.Duration {
	d := cfg.RetryBase << uint(attempt)
	if d > cfg.RetryMax || d <= 0 {
		d = cfg.RetryMax
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// sleep waits for d or until the endpoint closes; it reports whether the
// endpoint is still open.
func (r *Resilient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.done:
		return false
	}
}

// reapIfIdle retires the peer if its queue is still empty and its breaker
// closed, dropping any pooled connection. It reports whether the sender
// goroutine should exit.
func (r *Resilient) reapIfIdle(p *rpeer) bool {
	r.mu.Lock()
	if len(p.q) > 0 {
		r.mu.Unlock()
		return false
	}
	p.bmu.Lock()
	closedBreaker := p.b.state == BreakerClosed
	p.bmu.Unlock()
	if !closedBreaker {
		// Keep open/half-open breakers around: their state is the
		// evidence the health surface reports.
		r.mu.Unlock()
		return false
	}
	delete(r.peers, p.to)
	r.mu.Unlock()
	telResBreakerPeers.With(BreakerClosed.String()).Dec()
	if d, ok := r.inner.(connDropper); ok {
		d.DropConn(p.to)
	}
	return true
}

// newJitterRand derives a per-peer jitter source; seeded configs get
// reproducible backoff sequences.
func (r *Resilient) newJitterRand(to Addr) *rand.Rand {
	seed := r.cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	for _, b := range []byte(to) {
		seed = seed*131 + int64(b)
	}
	return rand.New(rand.NewSource(seed))
}
