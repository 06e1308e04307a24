// Package gossip implements a SWIM-style membership and stats-dissemination
// protocol: periodic ping / ping-req indirect probing with a suspect→dead
// state machine guarded by incarnation numbers, plus a push-pull
// anti-entropy sync for catch-up after partitions. Every protocol message
// piggybacks recent membership updates, and every alive update carries the
// member's monitoring digest (availability vector, drop ratio, service
// offerings, monotonically versioned), so a node's local view converges on
// both liveness and resource state without per-request fan-out fetches.
//
// The protocol runs over an overlay node's direct request layer — and thus
// over the transport.Transport abstraction — so the exact same code is
// exercised deterministically under netsim (seeded, virtual clock) and over
// real TCP in internal/live. Like the rest of the protocol stack, a Gossip
// is not internally synchronized: all methods and timer callbacks must run
// on one goroutine (the simulator event loop or a live node's actor loop).
package gossip

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/transport"
)

// State is a member's liveness state in the local view.
type State uint8

const (
	// StateAlive members answer probes (or have not yet missed one).
	StateAlive State = iota
	// StateSuspect members missed a direct and indirect probe and have
	// SuspicionTimeout to refute with a higher incarnation.
	StateSuspect
	// StateDead members exhausted their suspicion timeout. Terminal until
	// the entry ages out (DeadRetention) or a strictly higher incarnation
	// announces itself.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Digest is the monitoring summary piggybacked on every alive update: the
// origin's availability vector and drop ratio (inside Report), its service
// offerings, and a version that increases with every refresh at the origin
// so receivers keep only the newest snapshot.
type Digest struct {
	// Version orders digests from the same origin; 0 means "no digest
	// yet" and is never published.
	Version uint64 `json:"v"`
	// At is the origin's local clock when the digest was produced
	// (informational; cross-node clocks are not comparable).
	At time.Duration `json:"at"`
	// Report is the origin's monitoring snapshot (component windows are
	// stripped to keep protocol messages small).
	Report monitor.Report `json:"report"`
	// Services are the services the origin announces.
	Services []string `json:"services,omitempty"`
}

// Member is one entry of the local membership view.
type Member struct {
	Info        overlay.NodeInfo
	State       State
	Incarnation uint64
	Digest      Digest
	// DigestAt is the local clock time the digest's current version was
	// learned (local production time for the node itself).
	DigestAt time.Duration
	// StateAt is the local clock time of the last state transition.
	StateAt time.Duration
}

// member is the internal mutable entry behind a Member snapshot.
type member struct {
	Member
	suspectCancel func()
	suspectRound  int64
	removeCancel  func()
}

// Summary are the membership counts exposed on /healthz.
type Summary struct {
	Alive   int `json:"alive"`
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`
	// OldestDigestAgeMs is the age (local clock) of the stalest digest
	// held for an alive peer, in milliseconds; -1 when no peer digest is
	// held.
	OldestDigestAgeMs int64 `json:"oldestDigestAgeMs"`
}

// Config tunes the protocol. The zero value selects the defaults noted on
// each field.
type Config struct {
	// ProbeInterval is the protocol period T: one member is probed per
	// tick (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds the direct ping before indirect probing starts
	// (default 300ms).
	ProbeTimeout time.Duration
	// IndirectProbes is k, the number of peers asked to ping-req an
	// unresponsive member (default 2).
	IndirectProbes int
	// SuspicionTimeout is how long a suspect may refute before it is
	// declared dead (default 3×ProbeInterval).
	SuspicionTimeout time.Duration
	// SyncInterval is the push-pull anti-entropy period (default
	// 10×ProbeInterval).
	SyncInterval time.Duration
	// MaxPiggyback is the maximum number of membership updates carried
	// per protocol message (default 6).
	MaxPiggyback int
	// RetransmitMult scales each update's rebroadcast budget:
	// RetransmitMult×⌈log₂(n+1)⌉ transmissions (default 3).
	RetransmitMult int
	// DeadRetention is how long a dead entry is remembered before it may
	// rejoin at incarnation 0 (default 20×SuspicionTimeout).
	DeadRetention time.Duration
	// Cluster scopes the protocol to one federation cluster: members of
	// other clusters are never seeded, probed or merged from piggybacked
	// updates, so full digests stay intra-cluster. Empty (the default)
	// keeps the flat, unscoped protocol.
	Cluster string
	// BorderPeers are remote-cluster border nodes this node exchanges
	// compact cluster summaries with (only border nodes set it). Ignored
	// when Cluster is empty.
	BorderPeers []overlay.NodeInfo
	// SummaryInterval is the period of the border summary exchange
	// (default 2×ProbeInterval).
	SummaryInterval time.Duration
	// SummaryTTL is how long a remote cluster summary stays fresh before
	// it expires and OnSummaryLost fires (default 5×SummaryInterval).
	SummaryTTL time.Duration
	// BoundaryBps is the boundary-link capacity this cluster advertises
	// in its summaries (informational; the federation ledger enforces it).
	BoundaryBps float64
}

func (c *Config) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 300 * time.Millisecond
	}
	if c.ProbeTimeout >= c.ProbeInterval {
		c.ProbeTimeout = c.ProbeInterval / 2
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = 2
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 3 * c.ProbeInterval
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 10 * c.ProbeInterval
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = 6
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = 3
	}
	if c.DeadRetention <= 0 {
		c.DeadRetention = 20 * c.SuspicionTimeout
	}
	if c.SummaryInterval <= 0 {
		c.SummaryInterval = 2 * c.ProbeInterval
	}
	if c.SummaryTTL <= 0 {
		c.SummaryTTL = 5 * c.SummaryInterval
	}
}

// Overlay RPC application names.
const (
	appPing    = "gossip.ping"
	appPingReq = "gossip.ping-req"
	appSync    = "gossip.sync"
)

// update is the dissemination unit piggybacked on protocol messages.
type update struct {
	Node   overlay.NodeInfo `json:"node"`
	State  State            `json:"state"`
	Inc    uint64           `json:"inc"`
	Digest *Digest          `json:"digest,omitempty"`
}

// queued is an update awaiting rebroadcast.
type queued struct {
	u         update
	transmits int
}

type pingMsg struct {
	Updates []update `json:"u,omitempty"`
}

type pingReqMsg struct {
	Target  overlay.NodeInfo `json:"target"`
	Updates []update         `json:"u,omitempty"`
}

// syncMsg carries a full membership snapshot in both directions of an
// anti-entropy exchange.
type syncMsg struct {
	Updates []update `json:"u,omitempty"`
}

// Gossip is one node's membership protocol instance.
type Gossip struct {
	node *overlay.Node
	clk  clock.Clock
	rng  *rand.Rand
	cfg  Config

	members map[overlay.ID]*member
	queue   map[overlay.ID]*queued

	// probe round-robin: a shuffled order of member IDs, reshuffled when
	// exhausted (SWIM's round-robin with random offsets).
	order    []overlay.ID
	orderPos int

	incarnation uint64
	version     uint64
	digestFn    func() Digest
	onDead      []func(overlay.NodeInfo)
	onJoin      []func(overlay.NodeInfo)
	onDigest    []func(overlay.NodeInfo, monitor.Report)

	// Border summary exchange state (cluster-scoped instances only).
	summaryVersion uint64
	summaries      map[string]*remoteSummary
	onSummary      []func(ClusterSummary)
	onSummaryLost  []func(string)
	summaryCancel  func()

	rounds      int64
	syncs       int64
	probeCancel func()
	syncCancel  func()
	running     bool
}

// New attaches a gossip instance to an overlay node. rng drives probe
// target and indirect-relay selection; pass a seeded source for
// deterministic simulations. The node itself appears in the view as an
// alive member.
func New(node *overlay.Node, clk clock.Clock, rng *rand.Rand, cfg Config) *Gossip {
	cfg.defaults()
	g := &Gossip{
		node:      node,
		clk:       clk,
		rng:       rng,
		cfg:       cfg,
		members:   make(map[overlay.ID]*member),
		queue:     make(map[overlay.ID]*queued),
		summaries: make(map[string]*remoteSummary),
	}
	g.members[node.ID()] = &member{Member: Member{
		Info:  node.Info(),
		State: StateAlive,
	}}
	node.RegisterRequest(appPing, g.onPing)
	node.RegisterRequest(appPingReq, g.onPingReq)
	node.RegisterRequest(appSync, g.onSync)
	node.RegisterRequest(appSummary, g.onSummaryExchange)
	return g
}

// foreign reports whether info belongs to a different federation cluster
// than this cluster-scoped instance. Unscoped instances track everyone.
func (g *Gossip) foreign(info overlay.NodeInfo) bool {
	return g.cfg.Cluster != "" && info.Cluster != g.cfg.Cluster
}

// Config returns the effective configuration (defaults applied).
func (g *Gossip) Config() Config { return g.cfg }

// SetDigestFunc installs the producer of this node's own monitoring
// digest. fn runs once per protocol period on the protocol goroutine; the
// gossip layer assigns Version and At and strips per-component windows.
func (g *Gossip) SetDigestFunc(fn func() Digest) { g.digestFn = fn }

// OnMemberDead registers a callback fired (on the protocol goroutine) when
// a member transitions to dead.
func (g *Gossip) OnMemberDead(fn func(overlay.NodeInfo)) { g.onDead = append(g.onDead, fn) }

// OnMemberJoin registers a callback fired when a previously unknown member
// enters the view alive.
func (g *Gossip) OnMemberJoin(fn func(overlay.NodeInfo)) { g.onJoin = append(g.onJoin, fn) }

// OnDigest registers a callback fired (on the protocol goroutine) whenever
// a member's disseminated monitoring digest advances — the stats-driven
// feed of the adaptation control plane (drop-ratio spike detection).
func (g *Gossip) OnDigest(fn func(overlay.NodeInfo, monitor.Report)) {
	g.onDigest = append(g.onDigest, fn)
}

// Seed adds known peers as alive members without any network exchange
// (bootstrap state, e.g. from the overlay leaf set after joining).
func (g *Gossip) Seed(peers []overlay.NodeInfo) {
	now := g.clk.Now()
	for _, p := range peers {
		if p.ID == g.node.ID() || p.Addr == "" || g.foreign(p) {
			continue
		}
		if _, ok := g.members[p.ID]; ok {
			continue
		}
		g.members[p.ID] = &member{Member: Member{Info: p, State: StateAlive, StateAt: now}}
	}
}

// Join seeds the view with peer and immediately runs an anti-entropy sync
// with it, pulling the full converged membership in one round trip.
func (g *Gossip) Join(peer overlay.NodeInfo) {
	g.Seed([]overlay.NodeInfo{peer})
	g.syncWith(peer)
}

// Start begins the probe and anti-entropy loops. The first probe fires one
// ProbeInterval from now. Calling Start twice is a no-op.
func (g *Gossip) Start() {
	if g.running {
		return
	}
	g.running = true
	g.refreshDigest()
	var probe func()
	probe = func() {
		g.tick()
		g.probeCancel = g.clk.After(g.cfg.ProbeInterval, probe)
	}
	g.probeCancel = g.clk.After(g.cfg.ProbeInterval, probe)
	var sync func()
	sync = func() {
		g.antiEntropy()
		g.syncCancel = g.clk.After(g.cfg.SyncInterval, sync)
	}
	g.syncCancel = g.clk.After(g.cfg.SyncInterval, sync)
	if g.cfg.Cluster != "" && len(g.cfg.BorderPeers) > 0 {
		var summary func()
		summary = func() {
			g.summaryRound()
			g.summaryCancel = g.clk.After(g.cfg.SummaryInterval, summary)
		}
		g.summaryCancel = g.clk.After(g.cfg.SummaryInterval, summary)
	}
}

// Stop halts the protocol loops. Pending suspicion timers keep running so
// in-flight state machines settle; inbound messages are still answered.
func (g *Gossip) Stop() {
	g.running = false
	if g.probeCancel != nil {
		g.probeCancel()
		g.probeCancel = nil
	}
	if g.syncCancel != nil {
		g.syncCancel()
		g.syncCancel = nil
	}
	if g.summaryCancel != nil {
		g.summaryCancel()
		g.summaryCancel = nil
	}
}

// Rounds returns the number of protocol periods elapsed since Start.
func (g *Gossip) Rounds() int64 { return g.rounds }

// Members returns a snapshot of the view (self included), sorted by ID.
func (g *Gossip) Members() []Member {
	out := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.ID.Cmp(out[j].Info.ID) < 0 })
	return out
}

// Member returns the view entry for id.
func (g *Gossip) Member(id overlay.ID) (Member, bool) {
	if m, ok := g.members[id]; ok {
		return m.Member, true
	}
	return Member{}, false
}

// Summary condenses the view for health reporting.
func (g *Gossip) Summary() Summary {
	s := Summary{OldestDigestAgeMs: -1}
	now := g.clk.Now()
	for id, m := range g.members {
		switch m.State {
		case StateAlive:
			s.Alive++
		case StateSuspect:
			s.Suspect++
		case StateDead:
			s.Dead++
		}
		if id == g.node.ID() || m.State != StateAlive || m.Digest.Version == 0 {
			continue
		}
		if age := int64((now - m.DigestAt) / time.Millisecond); age > s.OldestDigestAgeMs {
			s.OldestDigestAgeMs = age
		}
	}
	return s
}

// HostsFor returns the alive members whose digest announces service,
// sorted by ID — discovery's gossip-backed lookup path.
func (g *Gossip) HostsFor(service string) []overlay.NodeInfo {
	var out []overlay.NodeInfo
	for _, m := range g.members {
		if m.State != StateAlive || m.Digest.Version == 0 {
			continue
		}
		for _, svc := range m.Digest.Services {
			if svc == service {
				out = append(out, m.Info)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Cmp(out[j].ID) < 0 })
	return out
}

// ReportFor returns the monitoring report from the converged view for an
// alive member (ok=false for unknown, suspect or dead members and members
// whose digest has not arrived yet) — the composer's gossip-fresh stats
// source.
func (g *Gossip) ReportFor(id overlay.ID) (monitor.Report, bool) {
	m, ok := g.members[id]
	if !ok || m.State != StateAlive || m.Digest.Version == 0 {
		return monitor.Report{}, false
	}
	return m.Digest.Report, true
}

// refreshDigest produces and enqueues a new version of the node's own
// digest.
func (g *Gossip) refreshDigest() {
	if g.digestFn == nil {
		return
	}
	d := g.digestFn()
	g.version++
	d.Version = g.version
	d.At = g.clk.Now()
	d.Report.Components = nil // keep protocol messages small
	self := g.members[g.node.ID()]
	self.Digest = d
	self.DigestAt = d.At
	self.Incarnation = g.incarnation
	g.enqueue(update{Node: g.node.Info(), State: StateAlive, Inc: g.incarnation, Digest: &d})
}

// tick runs one protocol period: refresh the local digest, pick the next
// round-robin member and probe it.
func (g *Gossip) tick() {
	g.rounds++
	g.refreshDigest()
	g.exportMembership()
	target, ok := g.nextTarget()
	if !ok {
		return
	}
	if target.Digest.Version > 0 {
		telDigestAge.Observe((g.clk.Now() - target.DigestAt).Seconds())
	}
	g.probe(target.Info)
}

// nextTarget picks the next non-dead peer in the shuffled round-robin
// order, reshuffling when the order is exhausted.
func (g *Gossip) nextTarget() (Member, bool) {
	for attempts := 0; attempts < 2; attempts++ {
		for g.orderPos < len(g.order) {
			id := g.order[g.orderPos]
			g.orderPos++
			if m, ok := g.members[id]; ok && m.State != StateDead {
				return m.Member, true
			}
		}
		// Rebuild: all current non-dead peers, shuffled.
		g.order = g.order[:0]
		g.orderPos = 0
		for id, m := range g.members {
			if id == g.node.ID() || m.State == StateDead {
				continue
			}
			g.order = append(g.order, id)
		}
		sort.Slice(g.order, func(i, j int) bool { return g.order[i].Cmp(g.order[j]) < 0 })
		g.rng.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	}
	return Member{}, false
}

// probe sends a direct ping; on timeout it falls back to indirect ping-req
// probing, and only when both fail is the target suspected.
func (g *Gossip) probe(target overlay.NodeInfo) {
	body := g.encode(pingMsg{Updates: g.pickUpdates()})
	g.node.Request(target.Addr, appPing, body, g.cfg.ProbeTimeout, func(resp []byte, err error) {
		if err == nil {
			telProbeAck.Inc()
			g.applyEncoded(resp)
			return
		}
		g.indirectProbe(target)
	})
}

// indirectProbe asks k random alive peers to ping target on our behalf.
func (g *Gossip) indirectProbe(target overlay.NodeInfo) {
	relays := g.pickRelays(target.ID, g.cfg.IndirectProbes)
	if len(relays) == 0 {
		telProbeTimeout.Inc()
		g.suspect(target.ID)
		return
	}
	// The indirect phase must finish within the protocol period: relays
	// get the remainder of the period after the direct timeout.
	timeout := g.cfg.ProbeInterval - g.cfg.ProbeTimeout
	body := g.encode(pingReqMsg{Target: target, Updates: g.pickUpdates()})
	remaining := len(relays)
	acked := false
	for _, r := range relays {
		g.node.Request(r.Addr, appPingReq, body, timeout, func(resp []byte, err error) {
			remaining--
			if err == nil && !acked {
				acked = true
				telProbeIndirect.Inc()
				g.applyEncoded(resp)
			}
			if remaining == 0 && !acked {
				telProbeTimeout.Inc()
				g.suspect(target.ID)
			}
		})
	}
}

// pickRelays selects up to k alive peers other than target (and self).
func (g *Gossip) pickRelays(target overlay.ID, k int) []overlay.NodeInfo {
	var pool []overlay.NodeInfo
	for id, m := range g.members {
		if id == g.node.ID() || id == target || m.State != StateAlive {
			continue
		}
		pool = append(pool, m.Info)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID.Cmp(pool[j].ID) < 0 })
	g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}

// SuspectAddr suspects the alive member listening on addr, short-cutting
// the probe path with first-hand transport evidence: when a peer's circuit
// breaker opens, the membership layer need not wait for its own probe
// timeouts to start the suspect→dead state machine. The member still gets
// the usual suspicion window to refute. It reports whether a member was
// suspected; like every Gossip method it must run on the protocol
// goroutine.
// InfoByAddr resolves a transport address to the member carrying it, in
// any state — for callers translating transport-level signals (circuit
// breakers) into identity-keyed control-plane events.
func (g *Gossip) InfoByAddr(addr transport.Addr) (overlay.NodeInfo, bool) {
	for _, m := range g.members {
		if m.Info.Addr == addr {
			return m.Info, true
		}
	}
	return overlay.NodeInfo{}, false
}

func (g *Gossip) SuspectAddr(addr transport.Addr) bool {
	for id, m := range g.members {
		if id == g.node.ID() || m.Info.Addr != addr || m.State != StateAlive {
			continue
		}
		g.suspect(id)
		return true
	}
	return false
}

// suspect transitions an alive member to suspect and starts its suspicion
// timer; the suspicion is broadcast with the member's current incarnation
// so the member can refute it with a higher one.
func (g *Gossip) suspect(id overlay.ID) {
	m, ok := g.members[id]
	if !ok || m.State != StateAlive {
		return
	}
	g.setSuspect(m, m.Incarnation)
	g.enqueue(update{Node: m.Info, State: StateSuspect, Inc: m.Incarnation})
}

// setSuspect applies the suspect state locally (shared by local probing
// and remote updates).
func (g *Gossip) setSuspect(m *member, inc uint64) {
	telSuspicions.Inc()
	m.State = StateSuspect
	m.Incarnation = inc
	m.StateAt = g.clk.Now()
	m.suspectRound = g.rounds
	if m.suspectCancel != nil {
		m.suspectCancel()
	}
	id := m.Info.ID
	m.suspectCancel = g.clk.After(g.cfg.SuspicionTimeout, func() {
		cur, ok := g.members[id]
		if !ok || cur.State != StateSuspect || cur.Incarnation != inc {
			return
		}
		g.declareDead(cur, inc)
		g.enqueue(update{Node: cur.Info, State: StateDead, Inc: inc})
	})
}

// declareDead finalizes a member's death: terminal state, dissemination,
// subscriber callbacks, and eventual removal from the view.
func (g *Gossip) declareDead(m *member, inc uint64) {
	telDeaths.Inc()
	telConvergenceRounds.Observe(float64(g.rounds - m.suspectRound))
	m.State = StateDead
	m.Incarnation = inc
	m.StateAt = g.clk.Now()
	if m.suspectCancel != nil {
		m.suspectCancel()
		m.suspectCancel = nil
	}
	id := m.Info.ID
	if m.removeCancel != nil {
		m.removeCancel()
	}
	m.removeCancel = g.clk.After(g.cfg.DeadRetention, func() {
		if cur, ok := g.members[id]; ok && cur.State == StateDead {
			delete(g.members, id)
		}
	})
	for _, fn := range g.onDead {
		fn(m.Info)
	}
}

// enqueue stages an update for piggybacked rebroadcast. A newer update
// about the same node replaces the queued one and resets its budget.
func (g *Gossip) enqueue(u update) {
	g.queue[u.Node.ID] = &queued{u: u}
}

// retransmitLimit is each update's total piggyback budget:
// RetransmitMult×⌈log₂(n+1)⌉ for an n-member view.
func (g *Gossip) retransmitLimit() int {
	n := len(g.members)
	lim := g.cfg.RetransmitMult * int(math.Ceil(math.Log2(float64(n+1))))
	if lim < 1 {
		lim = 1
	}
	return lim
}

// pickUpdates selects up to MaxPiggyback queued updates, least-transmitted
// first, charging their budgets.
func (g *Gossip) pickUpdates() []update {
	if len(g.queue) == 0 {
		return nil
	}
	entries := make([]*queued, 0, len(g.queue))
	for _, q := range g.queue {
		entries = append(entries, q)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].transmits != entries[j].transmits {
			return entries[i].transmits < entries[j].transmits
		}
		return entries[i].u.Node.ID.Cmp(entries[j].u.Node.ID) < 0
	})
	if len(entries) > g.cfg.MaxPiggyback {
		entries = entries[:g.cfg.MaxPiggyback]
	}
	limit := g.retransmitLimit()
	out := make([]update, 0, len(entries))
	for _, q := range entries {
		out = append(out, q.u)
		q.transmits++
		if q.transmits >= limit {
			delete(g.queue, q.u.Node.ID)
		}
	}
	return out
}

// snapshotUpdates renders the full view as updates (anti-entropy payload).
func (g *Gossip) snapshotUpdates() []update {
	out := make([]update, 0, len(g.members))
	for _, m := range g.members {
		u := update{Node: m.Info, State: m.State, Inc: m.Incarnation}
		if m.Digest.Version > 0 {
			d := m.Digest
			u.Digest = &d
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID.Cmp(out[j].Node.ID) < 0 })
	return out
}

// antiEntropy starts a push-pull sync with one random peer. Usually the
// peer is alive; every other period a (not yet aged-out) dead member is
// tried instead, so the two sides of a healed partition — which hold each
// other as dead and therefore never probe each other — rediscover one
// another: the "dead" peer sees its own death rumor in our snapshot and
// refutes it with a higher incarnation.
func (g *Gossip) antiEntropy() {
	g.syncs++
	if g.syncs%2 == 0 {
		if dead := g.pickDead(); dead != nil {
			g.syncWith(*dead)
			return
		}
	}
	peers := g.pickRelays(g.node.ID(), 1)
	if len(peers) == 0 {
		if dead := g.pickDead(); dead != nil {
			g.syncWith(*dead)
		}
		return
	}
	g.syncWith(peers[0])
}

// pickDead selects a random dead member still within its retention window.
func (g *Gossip) pickDead() *overlay.NodeInfo {
	var pool []overlay.NodeInfo
	for _, m := range g.members {
		if m.State == StateDead {
			pool = append(pool, m.Info)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID.Cmp(pool[j].ID) < 0 })
	return &pool[g.rng.Intn(len(pool))]
}

// syncWith exchanges full membership snapshots with peer.
func (g *Gossip) syncWith(peer overlay.NodeInfo) {
	body := g.encode(syncMsg{Updates: g.snapshotUpdates()})
	g.node.Request(peer.Addr, appSync, body, g.cfg.SyncInterval/2, func(resp []byte, err error) {
		if err != nil {
			return
		}
		telSyncs.Inc()
		var m syncMsg
		if json.Unmarshal(resp, &m) == nil {
			g.applyUpdates(m.Updates)
		}
	})
}

// onPing answers a direct probe, merging and returning piggybacked
// updates.
func (g *Gossip) onPing(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	var m pingMsg
	if err := json.Unmarshal(body, &m); err != nil {
		respond(nil, "gossip: bad ping: "+err.Error())
		return
	}
	g.applyUpdates(m.Updates)
	respond(g.encode(pingMsg{Updates: g.pickUpdates()}), "")
}

// onPingReq probes the target on the requester's behalf.
func (g *Gossip) onPingReq(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	var m pingReqMsg
	if err := json.Unmarshal(body, &m); err != nil {
		respond(nil, "gossip: bad ping-req: "+err.Error())
		return
	}
	g.applyUpdates(m.Updates)
	// The nested probe must answer before the requester's own relay
	// timeout; stay safely inside it.
	timeout := (g.cfg.ProbeInterval - g.cfg.ProbeTimeout) * 3 / 4
	ping := g.encode(pingMsg{Updates: g.pickUpdates()})
	g.node.Request(m.Target.Addr, appPing, ping, timeout, func(resp []byte, err error) {
		if err != nil {
			respond(nil, "gossip: target silent")
			return
		}
		g.applyEncoded(resp)
		respond(g.encode(pingMsg{Updates: g.pickUpdates()}), "")
	})
}

// onSync answers a push-pull exchange with the full local view.
func (g *Gossip) onSync(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	var m syncMsg
	if err := json.Unmarshal(body, &m); err != nil {
		respond(nil, "gossip: bad sync: "+err.Error())
		return
	}
	telSyncs.Inc()
	resp := g.encode(syncMsg{Updates: g.snapshotUpdates()})
	g.applyUpdates(m.Updates)
	respond(resp, "")
}

// applyEncoded merges the piggybacked updates of an encoded pingMsg.
func (g *Gossip) applyEncoded(body []byte) {
	var m pingMsg
	if json.Unmarshal(body, &m) == nil {
		g.applyUpdates(m.Updates)
	}
}

func (g *Gossip) applyUpdates(us []update) {
	for _, u := range us {
		g.apply(u)
	}
}

// apply merges one remote update into the view under SWIM's precedence
// rules: alive{i} overrides alive/suspect{<i}; suspect{i} overrides
// alive{≤i} and suspect{<i}; dead{i} overrides everything{≤i}. Updates
// that change the view are re-gossiped with a fresh budget.
func (g *Gossip) apply(u update) {
	if u.Node.ID == g.node.ID() {
		g.applySelf(u)
		return
	}
	// A cluster-scoped view only tracks its own cluster; other clusters
	// are known through border summaries, never full membership.
	if g.foreign(u.Node) {
		return
	}
	m, known := g.members[u.Node.ID]
	if !known {
		if u.State == StateDead {
			// Record the tombstone so older alive/suspect gossip cannot
			// resurrect the member.
			m = &member{Member: Member{Info: u.Node, Incarnation: u.Inc, State: StateAlive}}
			g.members[u.Node.ID] = m
			g.declareDead(m, u.Inc)
			g.enqueue(u)
			return
		}
		m = &member{Member: Member{Info: u.Node, State: StateAlive, Incarnation: u.Inc, StateAt: g.clk.Now()}}
		g.members[u.Node.ID] = m
		g.mergeDigest(m, u.Digest)
		if u.State == StateSuspect {
			g.setSuspect(m, u.Inc)
		}
		g.enqueue(u)
		for _, fn := range g.onJoin {
			fn(u.Node)
		}
		return
	}
	changed := false
	switch u.State {
	case StateAlive:
		// Only the node itself ever raises its incarnation, so a strictly
		// higher one proves it is alive again — even over a tombstone.
		if u.Inc > m.Incarnation {
			if m.State == StateDead && m.removeCancel != nil {
				m.removeCancel()
				m.removeCancel = nil
			}
			if m.suspectCancel != nil {
				m.suspectCancel()
				m.suspectCancel = nil
			}
			m.State = StateAlive
			m.Incarnation = u.Inc
			m.StateAt = g.clk.Now()
			changed = true
		}
	case StateSuspect:
		if m.State == StateAlive && u.Inc >= m.Incarnation ||
			m.State == StateSuspect && u.Inc > m.Incarnation {
			g.setSuspect(m, u.Inc)
			changed = true
		}
	case StateDead:
		if m.State != StateDead && u.Inc >= m.Incarnation {
			g.declareDead(m, u.Inc)
			changed = true
		}
	}
	if g.mergeDigest(m, u.Digest) || changed {
		g.enqueue(update{Node: m.Info, State: m.State, Inc: m.Incarnation, Digest: digestPtr(m)})
	}
}

// applySelf handles gossip about this node itself: a suspicion or death
// rumor is refuted by announcing a strictly higher incarnation.
func (g *Gossip) applySelf(u update) {
	if u.State == StateAlive || u.Inc < g.incarnation {
		return
	}
	telRefutations.Inc()
	g.incarnation = u.Inc + 1
	self := g.members[g.node.ID()]
	self.Incarnation = g.incarnation
	g.enqueue(update{Node: g.node.Info(), State: StateAlive, Inc: g.incarnation, Digest: digestPtr(self)})
}

// mergeDigest keeps the newest digest version for a member; it reports
// whether the digest advanced.
func (g *Gossip) mergeDigest(m *member, d *Digest) bool {
	if d == nil || d.Version <= m.Digest.Version {
		return false
	}
	m.Digest = *d
	m.DigestAt = g.clk.Now()
	for _, fn := range g.onDigest {
		fn(m.Info, m.Digest.Report)
	}
	return true
}

// digestPtr returns the member's digest for re-gossip, nil when none held.
func digestPtr(m *member) *Digest {
	if m.Digest.Version == 0 {
		return nil
	}
	d := m.Digest
	return &d
}

func (g *Gossip) encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("gossip: marshal: " + err.Error()) // protocol types are always marshalable
	}
	return b
}

// exportMembership publishes the view counts to the telemetry registry.
func (g *Gossip) exportMembership() {
	s := g.Summary()
	telMembersAlive.Set(float64(s.Alive))
	telMembersSuspect.Set(float64(s.Suspect))
	telMembersDead.Set(float64(s.Dead))
}
