package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/trace"
)

// Sentinel errors for admission verdicts; match them with errors.Is. The
// concrete error carried by a Decision is an *AdmissionError wrapping one
// of these.
var (
	// ErrAdmissionRejected reports that the gate turned the application
	// away: admitting it would push a running tenant of equal or higher
	// priority below its guaranteed share, and the admission queue is
	// full (or disabled).
	ErrAdmissionRejected = errors.New("tenant: admission rejected")
	// ErrAdmissionQueued reports that the application was parked in the
	// admission queue; it will be submitted automatically when capacity
	// frees up.
	ErrAdmissionQueued = errors.New("tenant: admission queued")
)

// AdmissionError is the typed verdict of a failed admission.
type AdmissionError struct {
	App      string
	Priority spec.Priority
	// Queued distinguishes a parked application (retried automatically)
	// from a rejected one.
	Queued bool
	// DemandBps is the application's requested aggregate rate;
	// CapacityBps the gate's budget at decision time.
	DemandBps   float64
	CapacityBps float64
	Reason      string
}

func (e *AdmissionError) Error() string {
	verb := "rejected"
	if e.Queued {
		verb = "queued"
	}
	return fmt.Sprintf("tenant: %s %s (%s, %.0f bps of %.0f bps budget): %s",
		e.App, verb, e.Priority, e.DemandBps, e.CapacityBps, e.Reason)
}

// Unwrap makes errors.Is(err, ErrAdmissionRejected/ErrAdmissionQueued)
// work through the typed error.
func (e *AdmissionError) Unwrap() error {
	if e.Queued {
		return ErrAdmissionQueued
	}
	return ErrAdmissionRejected
}

// State is a tenant's admission state.
type State int

const (
	// StateAdmitted: the tenant holds a fair-share allocation and may run.
	StateAdmitted State = iota
	// StateQueued: the tenant waits in the admission queue.
	StateQueued
	// StateRejected: the tenant was turned away (not retained by the gate).
	StateRejected
)

// String returns the snake-free label used in snapshots and telemetry.
func (s State) String() string {
	switch s {
	case StateAdmitted:
		return "admitted"
	case StateQueued:
		return "queued"
	case StateRejected:
		return "rejected"
	}
	return "unknown"
}

// Owner receives the gate's asynchronous verdicts about a tenant it
// admitted. Implementations must not call back into the gate
// synchronously (the stream engine hops onto its own loop first).
type Owner interface {
	// TenantCapChanged reports that a fairness recompute moved the
	// tenant's rate cap (bits/sec); the owner should reallocate the
	// application to the new cap.
	TenantCapChanged(app string, capBps float64)
	// TenantPreempted reports that contention pushed the tenant out: the
	// owner should tear the application down; the gate holds it in the
	// admission queue.
	TenantPreempted(app string)
	// TenantPromoted reports that a queued tenant now fits: the owner
	// should submit the application.
	TenantPromoted(app string)
}

// Config parameterizes a Gate. The zero value is usable but admits
// nothing (zero capacity); set CapacityBps.
type Config struct {
	// CapacityBps is the aggregate cluster capacity the gate budgets, in
	// bits/sec. The gate's feasibility probe is a ledger against this
	// budget — cheap (no solver run), with the min-cost composer behind
	// it still the precise check (a composition that fails releases the
	// admission). With PerHostLedger armed and hosts registered, the
	// aggregate is derived as the sum of host budgets instead.
	CapacityBps float64
	// MaxTenants bounds concurrently admitted applications (0 =
	// unlimited).
	MaxTenants int
	// QueueCapacity bounds the admission queue (default 16; negative
	// disables queuing, so every infeasible admission is rejected).
	QueueCapacity int
	// MinShareFraction is the guaranteed floor: a tenant whose fair
	// share falls below this fraction of its demand is not viable — a
	// candidate is queued/rejected instead of admitted below it, and a
	// running tenant pushed below it by contention is preempted
	// (default 0.5, matching the adaptation plane's MinRateFraction;
	// clamped to at most 1).
	MinShareFraction float64
	// WeightCritical, WeightStandard and WeightBestEffort are the
	// water-filling weights of the priority classes (defaults 4, 2, 1).
	WeightCritical   float64
	WeightStandard   float64
	WeightBestEffort float64
	// FairShareDeadband is the relative deadband ε for cap fan-out:
	// after a recompute, a running tenant is re-notified only when its
	// cap moved by more than ε relative to the value it was last told,
	// so an admission storm touches O(changed) tenants instead of all of
	// them. Pushed caps always stay within ~ε (relative) of the exact
	// fair share. 0 — the default — notifies every change beyond float
	// noise, the exact pre-deadband behavior.
	FairShareDeadband float64
	// CapCoalesceWindow batches cap fan-out: recomputes within the
	// window collapse into a single fair_share_changed sweep when it
	// expires, so a burst of admissions costs each running tenant at
	// most one notification per window. Requires Clock; 0 (the default)
	// sweeps inline with every recompute. Preemption and promotion
	// notices are never deferred.
	CapCoalesceWindow time.Duration
	// PerHostLedger arms per-host capacity accounting: hosts registered
	// via UpsertHost carry individual budgets (the aggregate becomes
	// their sum), placements reported via SetPlacements commit rate
	// against the host they landed on, the admission feasibility probe
	// requires one host with enough uncommitted budget for the
	// candidate's guaranteed floor, and a host's death releases exactly
	// that host's budget (RemoveHost is idempotent).
	PerHostLedger bool
	// Clock timestamps journal spans and drives the coalescing window
	// (optional; zero times and inline sweeps without it).
	Clock clock.Clock
	// Journal, when set, records admit/reject/preempt/promote decisions
	// as first-class decision traces.
	Journal *trace.Journal
}

func (c *Config) defaults() {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 16
	}
	if c.QueueCapacity < 0 {
		c.QueueCapacity = 0
	}
	if c.MinShareFraction <= 0 {
		c.MinShareFraction = 0.5
	}
	if c.MinShareFraction > 1 {
		c.MinShareFraction = 1
	}
	if c.WeightCritical <= 0 {
		c.WeightCritical = 4
	}
	if c.WeightStandard <= 0 {
		c.WeightStandard = 2
	}
	if c.WeightBestEffort <= 0 {
		c.WeightBestEffort = 1
	}
	if c.FairShareDeadband < 0 {
		c.FairShareDeadband = 0
	}
}

// Weight returns the configured water-filling weight of a class.
func (c *Config) Weight(p spec.Priority) float64 {
	switch p {
	case spec.Critical:
		return c.WeightCritical
	case spec.BestEffort:
		return c.WeightBestEffort
	}
	return c.WeightStandard
}

// Decision is the gate's verdict on one admission attempt.
type Decision struct {
	State State
	// CapBps is the admitted fair-share rate cap (≤ the demand); only
	// meaningful when State is StateAdmitted.
	CapBps float64
	// New reports a first admission; false for the idempotent re-admit
	// of an already-admitted application (a recompose resubmitting).
	New bool
	// Err is the typed *AdmissionError for queued/rejected verdicts.
	Err error
}

// tenantState is the gate's record of one tenant.
type tenantState struct {
	app         string
	pri         spec.Priority
	weight      float64 // water-filling weight of the class, fixed at admit
	demandBps   float64
	capBps      float64
	owner       Owner
	state       State
	seq         int64 // admission order, for FIFO queue ties
	admittedAt  time.Duration
	preemptions int
	// placedBps charges the tenant's placed rate against ledger hosts
	// (host id → bits/sec), set via SetPlacements.
	placedBps map[string]float64
}

// Status is a tenant's externally visible posture, served by the
// /debug/rasc/tenants endpoint and System.Tenants.
type Status struct {
	App       string  `json:"app"`
	Priority  string  `json:"priority"`
	State     string  `json:"state"`
	DemandBps float64 `json:"demandBps"`
	// CapBps is the current fair-share rate cap (admitted tenants only).
	CapBps float64 `json:"capBps,omitempty"`
	// Preemptions counts how many times contention pushed the tenant
	// back into the queue.
	Preemptions int           `json:"preemptions,omitempty"`
	AdmittedAt  time.Duration `json:"admittedAt,omitempty"`
}

// Totals is the gate's aggregate posture.
type Totals struct {
	Admitted    int     `json:"admitted"`
	Queued      int     `json:"queued"`
	CapacityBps float64 `json:"capacityBps"`
	// DemandBps is the aggregate requested rate of admitted tenants;
	// AllocatedBps the aggregate of their fair-share caps.
	DemandBps    float64 `json:"demandBps"`
	AllocatedBps float64 `json:"allocatedBps"`
	Preemptions  int64   `json:"preemptions"`
	Rejections   int64   `json:"rejections"`
}

// GateStats are cumulative decision-path counters for benchmarks and
// experiments — unlike the process-global telemetry, they are scoped to
// one gate, so A/B comparisons do not bleed into each other.
type GateStats struct {
	// Recomputes counts fairness recomputations.
	Recomputes int64 `json:"recomputes"`
	// CapNotifications counts fair_share_changed events delivered to
	// owners.
	CapNotifications int64 `json:"capNotifications"`
	// CoalescedCapEvents counts cap updates suppressed by the deadband
	// or merged into a coalesced sweep.
	CoalescedCapEvents int64 `json:"coalescedCapEvents"`
}

// Gate is a per-cluster admission controller with weighted max-min
// fairness. All methods are safe for concurrent use; owner notifications
// fire outside the gate's lock, in deterministic order.
type Gate struct {
	cfg Config

	mu       sync.Mutex
	capacity float64
	admitted map[string]*tenantState
	queue    []*tenantState // rank-descending, FIFO within a class
	nextSeq  int64

	// Incremental allocator state: the admitted positive demands ordered
	// by saturation level, plus the water level of the last applied
	// notification sweep.
	wf             waterfill
	lastSweepLevel float64
	sweepPending   bool    // a coalesced sweep is scheduled on the clock
	pendingMin     float64 // lowest settle level of the pending window (+Inf outside one)

	// O(1) posture counters.
	classCount [3]int // admitted tenants per priority rank
	demandSum  float64

	// Per-host capacity ledger (cfg.PerHostLedger).
	hosts      map[string]*hostState
	hostCapSum float64

	preemptions int64
	rejections  int64

	statRecomputes int64
	statCapNotifs  int64
	statCoalesced  int64
}

// NewGate builds a gate budgeting cfg.CapacityBps.
func NewGate(cfg Config) *Gate {
	cfg.defaults()
	g := &Gate{
		cfg:            cfg,
		capacity:       cfg.CapacityBps,
		admitted:       make(map[string]*tenantState),
		lastSweepLevel: math.Inf(1),
		pendingMin:     math.Inf(1),
	}
	telCapacity.Set(g.capacity)
	return g
}

// notifs collects owner notifications to deliver outside the lock.
type notifs struct {
	preempted []*tenantState
	capChange []*tenantState
	promoted  []*tenantState
}

func (n *notifs) deliver() {
	for _, t := range n.preempted {
		if t.owner != nil {
			t.owner.TenantPreempted(t.app)
		}
	}
	for _, t := range n.capChange {
		if t.owner != nil {
			t.owner.TenantCapChanged(t.app, t.capBps)
		}
	}
	for _, t := range n.promoted {
		if t.owner != nil {
			t.owner.TenantPromoted(t.app)
		}
	}
}

func (g *Gate) now() time.Duration {
	if g.cfg.Clock == nil {
		return 0
	}
	return g.cfg.Clock.Now()
}

// record writes one admission decision into the journal.
func (g *Gate) record(app, trigger, cause string, err error, attrs ...trace.Attr) {
	if g.cfg.Journal == nil {
		return
	}
	now := g.now()
	d := g.cfg.Journal.Begin(now, app, trigger, cause)
	d.Span(trigger, now, now, attrs...)
	d.Complete(now, "admission", err)
}

// registerAdmittedLocked adds a tenant to the admitted set and posture
// counters (waterfill membership is maintained explicitly by callers).
func (g *Gate) registerAdmittedLocked(t *tenantState) {
	g.admitted[t.app] = t
	g.classCount[t.pri.Rank()]++
	g.demandSum += t.demandBps
}

// unregisterAdmittedLocked removes a tenant from the admitted set and
// posture counters, and releases its committed host budget.
func (g *Gate) unregisterAdmittedLocked(t *tenantState) {
	delete(g.admitted, t.app)
	g.classCount[t.pri.Rank()]--
	g.demandSum -= t.demandBps
	g.uncommitPlacementsLocked(t)
}

// updateDemandLocked rebases a tenant's demand, keeping the counters and
// the incremental structure consistent.
func (g *Gate) updateDemandLocked(t *tenantState, demandBps float64) {
	g.demandSum += demandBps - t.demandBps
	if t.demandBps > 0 {
		g.wf.remove(t.app, t.demandBps, t.weight)
	}
	t.demandBps = demandBps
	if t.demandBps > 0 {
		g.wf.insert(t.app, t.demandBps, t.weight)
	}
}

// Admit decides whether the application may run. The demand is the
// application's aggregate requested rate in bits/sec; the owner receives
// later cap changes, preemptions and (for queued tenants) the promotion.
// Re-admitting an already-admitted application is idempotent and returns
// its current cap — the path a recompose takes.
func (g *Gate) Admit(app string, pri spec.Priority, demandBps float64, owner Owner) Decision {
	g.mu.Lock()
	if t, ok := g.admitted[app]; ok {
		// Idempotent re-admit (recompose). A changed demand re-settles
		// the allocation; same demand just reports the standing cap.
		if t.demandBps != demandBps {
			g.updateDemandLocked(t, demandBps)
			n := &notifs{}
			g.incRebalanceLocked(n, t)
			g.refreshGaugesLocked()
			cap := t.capBps
			g.mu.Unlock()
			n.deliver()
			return Decision{State: StateAdmitted, CapBps: cap}
		}
		cap := t.capBps
		g.mu.Unlock()
		return Decision{State: StateAdmitted, CapBps: cap}
	}
	for _, q := range g.queue {
		if q.app == app {
			err := g.admissionErrLocked(q, true, "already queued")
			g.mu.Unlock()
			return Decision{State: StateQueued, Err: err}
		}
	}

	cand := &tenantState{
		app: app, pri: pri, weight: g.cfg.Weight(pri),
		demandBps: demandBps, owner: owner, seq: g.nextSeq,
	}
	g.nextSeq++

	n := &notifs{}
	victims, reason := g.incAdmitLocked(cand, n)
	if reason != "" {
		dec := g.parkLocked(cand, reason)
		g.refreshGaugesLocked()
		g.mu.Unlock()
		return dec
	}
	cand.state = StateAdmitted
	cand.admittedAt = g.now()
	telAdmissions.With("admitted").Inc()
	g.record(app, "admit", fmt.Sprintf("priority=%s demand=%.0fbps", pri, demandBps), nil,
		trace.A("priority", pri.String()),
		trace.AInt("demand_bps", int64(demandBps)),
		trace.AInt("cap_bps", int64(cand.capBps)),
		trace.AInt("victims", int64(victims)))
	g.refreshGaugesLocked()
	g.mu.Unlock()
	n.deliver()
	return Decision{State: StateAdmitted, CapBps: cand.capBps, New: true}
}

// admissionErrLocked builds the typed verdict error.
func (g *Gate) admissionErrLocked(t *tenantState, queued bool, reason string) error {
	return &AdmissionError{
		App: t.app, Priority: t.pri, Queued: queued,
		DemandBps: t.demandBps, CapacityBps: g.capacity, Reason: reason,
	}
}

// parkLocked queues the candidate if there is room, else rejects it.
func (g *Gate) parkLocked(cand *tenantState, reason string) Decision {
	if len(g.queue) < g.cfg.QueueCapacity {
		cand.state = StateQueued
		g.enqueueLocked(cand)
		telAdmissions.With("queued").Inc()
		err := g.admissionErrLocked(cand, true, reason)
		g.record(cand.app, "admit", reason, err,
			trace.A("priority", cand.pri.String()),
			trace.AInt("demand_bps", int64(cand.demandBps)),
			trace.ABool("queued", true))
		return Decision{State: StateQueued, Err: err}
	}
	g.rejections++
	telAdmissions.With("rejected").Inc()
	err := g.admissionErrLocked(cand, false, reason)
	g.record(cand.app, "reject", reason, err,
		trace.A("priority", cand.pri.String()),
		trace.AInt("demand_bps", int64(cand.demandBps)))
	return Decision{State: StateRejected, Err: err}
}

// enqueueLocked inserts by priority rank (descending), FIFO within a
// class.
func (g *Gate) enqueueLocked(t *tenantState) {
	i := sort.Search(len(g.queue), func(i int) bool {
		if g.queue[i].pri.Rank() != t.pri.Rank() {
			return g.queue[i].pri.Rank() < t.pri.Rank()
		}
		return g.queue[i].seq > t.seq
	})
	g.queue = append(g.queue, nil)
	copy(g.queue[i+1:], g.queue[i:])
	g.queue[i] = t
}

// evictLocked performs the shared preemption bookkeeping: the victim
// leaves the admitted set (waterfill membership is the caller's concern)
// and moves to the queue, or is rejected when the queue is full.
func (g *Gate) evictLocked(v *tenantState, n *notifs) {
	g.unregisterAdmittedLocked(v)
	v.preemptions++
	g.preemptions++
	telPreemptions.Inc()
	g.record(v.app, "preempt", "displaced by higher-priority contention", nil,
		trace.A("priority", v.pri.String()),
		trace.AInt("preemptions", int64(v.preemptions)))
	if len(g.queue) < g.cfg.QueueCapacity {
		v.state = StateQueued
		v.seq = g.nextSeq // re-queue at the back of its class
		g.nextSeq++
		g.enqueueLocked(v)
	} else {
		v.state = StateRejected
		g.rejections++
		telAdmissions.With("rejected").Inc()
		g.record(v.app, "reject", "preempted with full admission queue",
			g.admissionErrLocked(v, false, "preempted with full admission queue"))
	}
	n.preempted = append(n.preempted, v)
}

// ---------------------------------------------------------------------
// The allocator: the waterfill treap gives the water level in O(log n),
// the closed form share = min(demand, L·weight) gives each cap without
// touching the others, and fan-out visits only the suffix of entries
// whose share can have moved. The FairShares closed form and the refGate
// reference model (refgate_test.go) are its test oracles.
// ---------------------------------------------------------------------

// less orders eviction candidates: lowest rank first, then largest
// demand, then app ascending.
func less(a, b *tenantState) bool {
	if a.pri.Rank() != b.pri.Rank() {
		return a.pri.Rank() < b.pri.Rank()
	}
	if a.demandBps != b.demandBps {
		return a.demandBps > b.demandBps
	}
	return a.app < b.app
}

// incViableLocked reports whether the admitted set is viable at water
// level L: every tenant's share is at least MinShareFraction of its
// demand (within a 1e-9 slack). Satisfied tenants always pass
// (the floor fraction is ≤ 1), so only the highest-level entry — the
// worst share/demand ratio — needs checking.
func (g *Gate) incViableLocked(L float64) bool {
	if math.IsInf(L, 1) {
		return true
	}
	e := g.wf.maxEntry()
	if e == nil {
		return true
	}
	return wfShare(e, L) >= g.cfg.MinShareFraction*e.demand-1e-9
}

// shareForLocked is one tenant's exact share at water level L.
func (g *Gate) shareForLocked(t *tenantState, L float64) float64 {
	if t.demandBps <= 0 {
		return 0
	}
	e := wfEntry{demand: t.demandBps, weight: t.weight, level: t.demandBps / t.weight}
	return wfShare(&e, L)
}

// incAdmitLocked decides an admission: past the tenant limit and the
// host probe, tentatively insert the candidate, peel off lower-ranked
// victims while the allocation is not viable, then commit — or roll the
// structure back untouched when no viable allocation exists. It returns
// the number of tenants preempted, or the reason to park the candidate.
func (g *Gate) incAdmitLocked(cand *tenantState, n *notifs) (int, string) {
	if g.cfg.MaxTenants > 0 && len(g.admitted) >= g.cfg.MaxTenants {
		return 0, "tenant limit reached"
	}
	if reason, ok := g.hostProbeLocked(cand.demandBps); !ok {
		return 0, reason
	}
	if cand.demandBps > 0 {
		g.wf.insert(cand.app, cand.demandBps, cand.weight)
	}
	var victims []*tenantState
	var taken map[*tenantState]bool
	viable := false
	for {
		L := g.wf.level(g.capacity)
		if g.incViableLocked(L) {
			viable = true
			break
		}
		v := g.incPickVictimLocked(cand.pri.Rank(), taken)
		if v == nil {
			break
		}
		if taken == nil {
			taken = make(map[*tenantState]bool)
		}
		taken[v] = true
		victims = append(victims, v)
		if v.demandBps > 0 {
			g.wf.remove(v.app, v.demandBps, v.weight)
		}
	}
	if !viable {
		for _, v := range victims {
			if v.demandBps > 0 {
				g.wf.insert(v.app, v.demandBps, v.weight)
			}
		}
		if cand.demandBps > 0 {
			g.wf.remove(cand.app, cand.demandBps, cand.weight)
		}
		return 0, "fair share below guaranteed floor"
	}
	for _, v := range victims {
		g.evictLocked(v, n)
	}
	g.registerAdmittedLocked(cand)
	g.incSettleLocked(n, cand)
	return len(victims), ""
}

// incPickVictimLocked selects the admission-mode eviction victim: the
// lowest-ranked admitted tenant strictly below belowRank (largest demand
// first, then app ascending), excluding tenants already taken.
func (g *Gate) incPickVictimLocked(belowRank int, taken map[*tenantState]bool) *tenantState {
	var best *tenantState
	for _, t := range g.admitted {
		if t.pri.Rank() >= belowRank || taken[t] {
			continue
		}
		if best == nil || less(t, best) {
			best = t
		}
	}
	return best
}

// incPickRebalanceVictimLocked selects the rebalance-mode victim: a
// below-floor tenant of a class below the highest admitted class. Only
// entries with level > L/floor can be below floor, so the scan is a
// suffix walk, not a full sweep.
func (g *Gate) incPickRebalanceVictimLocked(L float64) *tenantState {
	top := g.maxRankLocked()
	f := g.cfg.MinShareFraction
	var best *tenantState
	g.wf.suffix(L/f, func(e *wfEntry) {
		if wfShare(e, L) >= f*e.demand-1e-9 {
			return
		}
		t := g.admitted[e.app]
		if t == nil || t.pri.Rank() >= top {
			return
		}
		if best == nil || less(t, best) {
			best = t
		}
	})
	return best
}

func (g *Gate) maxRankLocked() int {
	for r := len(g.classCount) - 1; r > 0; r-- {
		if g.classCount[r] > 0 {
			return r
		}
	}
	return 0
}

// incRebalanceLocked re-settles after a departure, demand update or
// capacity change: preempt below-floor tenants of the lower classes
// while a higher class is present, promote queued tenants that now fit,
// then sweep cap updates in one pass.
func (g *Gate) incRebalanceLocked(n *notifs, skip *tenantState) {
	for len(g.admitted) > 0 {
		L := g.wf.level(g.capacity)
		if g.incViableLocked(L) {
			break
		}
		v := g.incPickRebalanceVictimLocked(L)
		if v == nil {
			break // nothing to shed: survivors share the shortage below floor
		}
		if v.demandBps > 0 {
			g.wf.remove(v.app, v.demandBps, v.weight)
		}
		g.evictLocked(v, n)
	}
	g.incPromoteLocked(n)
	g.incSettleLocked(n, skip)
}

// incPromoteLocked admits queued tenants that fit cleanly (no eviction,
// no floor violation), in priority order.
func (g *Gate) incPromoteLocked(n *notifs) {
	for i := 0; i < len(g.queue); {
		q := g.queue[i]
		if g.cfg.MaxTenants > 0 && len(g.admitted) >= g.cfg.MaxTenants {
			return
		}
		if q.demandBps > 0 {
			g.wf.insert(q.app, q.demandBps, q.weight)
		}
		L := g.wf.level(g.capacity)
		if !g.incViableLocked(L) {
			if q.demandBps > 0 {
				g.wf.remove(q.app, q.demandBps, q.weight)
			}
			i++
			continue
		}
		g.queue = append(g.queue[:i], g.queue[i+1:]...)
		g.registerAdmittedLocked(q)
		q.capBps = g.shareForLocked(q, L)
		q.state = StateAdmitted
		q.admittedAt = g.now()
		telAdmissions.With("promoted").Inc()
		g.record(q.app, "promote", "capacity freed", nil,
			trace.A("priority", q.pri.String()),
			trace.AInt("cap_bps", int64(q.capBps)))
		n.promoted = append(n.promoted, q)
	}
}

// incSettleLocked recomputes the water level after a structural change
// and fans out cap updates. skip — the tenant whose join or demand
// change caused the settle — always receives its exact share silently
// (its Decision carries the cap). With a coalescing window configured,
// the fan-out is deferred to one sweep per window.
func (g *Gate) incSettleLocked(n *notifs, skip *tenantState) {
	start := time.Now()
	g.statRecomputes++
	telRecomputes.Inc()
	telRecomputesInc.Inc()
	L := g.wf.level(g.capacity)
	if skip != nil && g.admitted[skip.app] == skip {
		// Still admitted — a demand change that evicted skip itself keeps
		// its last cap.
		skip.capBps = g.shareForLocked(skip, L)
	}
	// Tenants promoted this operation had their caps fixed at the water
	// level of their own insertion; later promotions in the same pass can
	// have moved it. Refresh them at the final level silently (the
	// promotion notice already carries their admission) — the fan-out
	// below would otherwise be entitled to skip them.
	for _, q := range n.promoted {
		if g.admitted[q.app] != q {
			continue
		}
		if c := g.shareForLocked(q, L); math.Abs(c-q.capBps) > 1e-6 {
			q.capBps = c
		}
	}
	if g.cfg.CapCoalesceWindow > 0 && g.cfg.Clock != nil {
		// Caps set exactly during the window (admits, promotions) pin
		// their tenants at this settle's level; the deferred sweep must
		// bound its suffix below every such level to catch them all.
		if L < g.pendingMin {
			g.pendingMin = L
		}
		if g.sweepPending {
			// Merged into the already-scheduled sweep.
			g.statCoalesced++
			telCoalesced.Inc()
		} else {
			g.sweepPending = true
			g.cfg.Clock.After(g.cfg.CapCoalesceWindow, g.coalescedSweep)
		}
	} else {
		g.incFanoutLocked(L, skip, n, math.Inf(1))
	}
	telRecomputeLatency.Observe(time.Since(start).Seconds())
}

// coalescedSweep is the deferred fan-out at the end of a coalescing
// window: one sweep covers every recompute that landed in the window.
func (g *Gate) coalescedSweep() {
	g.mu.Lock()
	g.sweepPending = false
	windowMin := g.pendingMin
	g.pendingMin = math.Inf(1)
	n := &notifs{}
	g.incFanoutLocked(g.wf.level(g.capacity), nil, n, windowMin)
	g.refreshGaugesLocked()
	g.mu.Unlock()
	n.deliver()
}

// incFanoutLocked pushes cap updates for the move to water level L. Only
// entries with saturation level above bound = min(lastSweepLevel, L) can
// have moved since the last applied sweep — everything at or below the
// bound was satisfied (cap = demand) before and still is. When the level
// itself drifted no further than the deadband, the whole sweep is
// skipped: an unsatisfied tenant's cap is L·weight, so its relative
// drift equals the level's.
func (g *Gate) incFanoutLocked(L float64, skip *tenantState, n *notifs, windowMin float64) {
	drift := relDiff(L, g.lastSweepLevel)
	// A coalescing-window flush (finite windowMin) may have pinned caps
	// at intermediate settle levels, so it must sweep even with zero net
	// level drift, bounded below every such level; the per-entry checks
	// still keep the notification set to what actually moved.
	flush := !math.IsInf(windowMin, 1)
	if drift == 0 && !flush {
		return
	}
	bound := math.Min(math.Min(L, g.lastSweepLevel), windowMin)
	db := g.cfg.FairShareDeadband
	if db > 0 && drift <= db && !flush {
		sup := g.wf.countAbove(bound)
		g.statCoalesced += int64(sup)
		telCoalesced.Add(uint64(sup))
		return
	}
	g.wf.suffix(bound, func(e *wfEntry) {
		t := g.admitted[e.app]
		if t == nil || t == skip {
			return
		}
		newCap := wfShare(e, L)
		diff := math.Abs(newCap - t.capBps)
		if diff <= 1e-6 {
			return
		}
		if db > 0 && diff <= db*math.Abs(t.capBps) {
			g.statCoalesced++
			telCoalesced.Inc()
			return
		}
		t.capBps = newCap
		g.statCapNotifs++
		telCapChanges.Inc()
		n.capChange = append(n.capChange, t)
	})
	g.lastSweepLevel = L
}

// relDiff is the relative difference of two water levels (0 for
// bit-equal values, including two +Inf levels).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// ---------------------------------------------------------------------

// Release removes the application from the gate — it finished, was torn
// down, or its composition failed — re-settling the remaining tenants'
// caps and promoting queued ones that now fit. Releasing an unknown or
// queued application just forgets it.
func (g *Gate) Release(app string) {
	g.mu.Lock()
	if t, ok := g.admitted[app]; ok {
		if t.demandBps > 0 {
			g.wf.remove(t.app, t.demandBps, t.weight)
		}
		g.unregisterAdmittedLocked(t)
		n := &notifs{}
		g.incRebalanceLocked(n, nil)
		g.refreshGaugesLocked()
		g.mu.Unlock()
		n.deliver()
		return
	}
	for i, q := range g.queue {
		if q.app == app {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	g.refreshGaugesLocked()
	g.mu.Unlock()
}

// SetCapacity rebases the gate's budget (membership or provisioning
// change) and re-settles every allocation. With a per-host ledger armed
// the aggregate is normally derived from host budgets — the next
// UpsertHost/RemoveHost overrides a manual SetCapacity.
func (g *Gate) SetCapacity(bps float64) {
	g.mu.Lock()
	if bps < 0 {
		bps = 0
	}
	g.capacity = bps
	n := &notifs{}
	g.incRebalanceLocked(n, nil)
	g.refreshGaugesLocked()
	g.mu.Unlock()
	n.deliver()
}

// AddCapacity adjusts the budget by delta (negative when a member died).
func (g *Gate) AddCapacity(delta float64) {
	g.mu.Lock()
	cap := g.capacity + delta
	g.mu.Unlock()
	g.SetCapacity(cap)
}

// CapacityBps returns the current budget.
func (g *Gate) CapacityBps() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.capacity
}

// Has reports whether the gate still tracks the application (admitted or
// queued).
func (g *Gate) Has(app string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.admitted[app]; ok {
		return true
	}
	for _, q := range g.queue {
		if q.app == app {
			return true
		}
	}
	return false
}

// CapBps returns the application's current fair-share rate cap; ok is
// false when the application is not admitted.
func (g *Gate) CapBps(app string) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.admitted[app]
	if !ok {
		return 0, false
	}
	return t.capBps, true
}

// Totals returns the gate's aggregate posture. AllocatedBps sums the
// caps in water-fill order, which holds every admitted tenant with a
// positive demand (the rest are capped at 0), so repeated calls on an
// unchanged gate return bit-identical totals.
func (g *Gate) Totals() Totals {
	g.mu.Lock()
	defer g.mu.Unlock()
	tt := Totals{
		Admitted: len(g.admitted), Queued: len(g.queue),
		CapacityBps: g.capacity, DemandBps: g.demandSum,
		Preemptions: g.preemptions, Rejections: g.rejections,
	}
	g.wf.suffix(math.Inf(-1), func(e *wfEntry) {
		tt.AllocatedBps += g.admitted[e.app].capBps
	})
	return tt
}

// Stats returns the gate-scoped decision counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{
		Recomputes:         g.statRecomputes,
		CapNotifications:   g.statCapNotifs,
		CoalescedCapEvents: g.statCoalesced,
	}
}

// Snapshot lists every retained tenant: admitted ones sorted by app, then
// the queue in promotion order.
func (g *Gate) Snapshot() []Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	apps := make([]string, 0, len(g.admitted))
	for app := range g.admitted {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	out := make([]Status, 0, len(apps)+len(g.queue))
	for _, app := range apps {
		t := g.admitted[app]
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: t.state.String(),
			DemandBps: t.demandBps, CapBps: t.capBps,
			Preemptions: t.preemptions, AdmittedAt: t.admittedAt,
		})
	}
	for _, t := range g.queue {
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: t.state.String(),
			DemandBps: t.demandBps, Preemptions: t.preemptions,
		})
	}
	return out
}

// refreshGaugesLocked re-derives the posture gauges from the O(1)
// counters (a full tenant scan here would defeat the incremental path).
func (g *Gate) refreshGaugesLocked() {
	for _, p := range []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort} {
		telActive.With(p.String()).Set(float64(g.classCount[p.Rank()]))
	}
	telQueued.Set(float64(len(g.queue)))
	telCapacity.Set(g.capacity)
	telDemand.Set(g.demandSum)
	telHosts.Set(float64(len(g.hosts)))
}

// CapRequest scales a request's substream rates down proportionally so
// the aggregate fits capBps, keeping every substream at least one
// unit/sec. A cap at or above the demand — or one so close that flooring
// changes no substream rate — returns the request unchanged without
// copying.
func CapRequest(req spec.Request, capBps float64) spec.Request {
	demand := req.BitsPerSecond(req.TotalRate())
	if capBps <= 0 || demand <= capBps {
		return req
	}
	f := capBps / demand
	// Fair-share caps routinely land a float ulp below the demand; when
	// the floored rates all come out unchanged, skip the deep copy.
	changed := false
	for i := range req.Substreams {
		r := int(math.Floor(float64(req.Substreams[i].Rate) * f))
		if r < 1 {
			r = 1
		}
		if r != req.Substreams[i].Rate {
			changed = true
			break
		}
	}
	if !changed {
		return req
	}
	subs := make([]spec.Substream, len(req.Substreams))
	copy(subs, req.Substreams)
	for i := range subs {
		r := int(math.Floor(float64(subs[i].Rate) * f))
		if r < 1 {
			r = 1
		}
		subs[i].Rate = r
	}
	req.Substreams = subs
	return req
}
