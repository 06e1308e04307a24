package tenant

import (
	"math"
	"sort"

	"rasc.dev/rasc/internal/spec"
)

// refGate is the reference model of the Gate's admission contract, built
// directly on the FairShares closed form: every admission, departure,
// demand change and capacity change re-solves the weighted water-fill
// over the whole admitted population (O(n log n) per event). It pins the
// observable behavior the gate's incremental allocator must reproduce:
//
//   - re-admitting an admitted app is idempotent; a changed demand
//     re-settles the allocation and reports the app's standing cap;
//   - admitting an already-queued app reports it queued;
//   - MaxTenants parks new candidates; QueueCapacity bounds the queue
//     (negative disables it, so parking becomes rejection);
//   - a candidate that is not viable evicts lower-ranked tenants in
//     refLess order (lowest rank, largest demand, app) until it is;
//   - a re-settle preempts below-floor tenants of classes below the top
//     admitted class, again in refLess order;
//   - the queue is rank-descending and FIFO within a class, a preempted
//     tenant re-queues at the back of its class;
//   - queued tenants are promoted only on a clean fit (no eviction, no
//     floor violation), in queue order;
//   - preemptions and rejections are counted.
//
// It tracks no owners, journal, telemetry or per-host ledger: configs
// compared against it must leave PerHostLedger, Clock,
// CapCoalesceWindow and FairShareDeadband unset.
type refGate struct {
	cfg         Config
	capacity    float64
	admitted    map[string]*refTenant
	queue       []*refTenant
	nextSeq     int64
	preemptions int64
	rejections  int64
}

type refTenant struct {
	app         string
	pri         spec.Priority
	demand      float64
	cap         float64
	state       State
	seq         int64
	preemptions int
}

func newRefGate(cfg Config) *refGate {
	cfg.defaults()
	return &refGate{cfg: cfg, capacity: cfg.CapacityBps, admitted: make(map[string]*refTenant)}
}

// refLess orders eviction candidates: lowest rank first, then largest
// demand (frees the most), then app ascending.
func refLess(a, b *refTenant) bool {
	if a.pri.Rank() != b.pri.Rank() {
		return a.pri.Rank() < b.pri.Rank()
	}
	if a.demand != b.demand {
		return a.demand > b.demand
	}
	return a.app < b.app
}

func (r *refGate) admissionErr(t *refTenant, queued bool, reason string) error {
	return &AdmissionError{
		App: t.app, Priority: t.pri, Queued: queued,
		DemandBps: t.demand, CapacityBps: r.capacity, Reason: reason,
	}
}

func (r *refGate) Admit(app string, pri spec.Priority, demandBps float64) Decision {
	if t, ok := r.admitted[app]; ok {
		if t.demand != demandBps {
			t.demand = demandBps
			r.rebalance(t)
		}
		return Decision{State: StateAdmitted, CapBps: t.cap}
	}
	for _, q := range r.queue {
		if q.app == app {
			return Decision{State: StateQueued, Err: r.admissionErr(q, true, "already queued")}
		}
	}
	cand := &refTenant{app: app, pri: pri, demand: demandBps, seq: r.nextSeq}
	r.nextSeq++
	if r.cfg.MaxTenants > 0 && len(r.admitted) >= r.cfg.MaxTenants {
		return r.park(cand, "tenant limit reached")
	}
	shares, victims, ok := r.solve(cand, true)
	if !ok {
		return r.park(cand, "fair share below guaranteed floor")
	}
	r.commit(cand, shares, victims, nil)
	cand.state = StateAdmitted
	return Decision{State: StateAdmitted, CapBps: cand.cap, New: true}
}

func (r *refGate) Release(app string) {
	if _, ok := r.admitted[app]; ok {
		delete(r.admitted, app)
		r.rebalance(nil)
		return
	}
	for i, q := range r.queue {
		if q.app == app {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

func (r *refGate) SetCapacity(bps float64) {
	r.capacity = math.Max(bps, 0)
	r.rebalance(nil)
}

func (r *refGate) AddCapacity(delta float64) { r.SetCapacity(r.capacity + delta) }

// park queues the candidate if there is room, else rejects it.
func (r *refGate) park(cand *refTenant, reason string) Decision {
	if len(r.queue) < r.cfg.QueueCapacity {
		cand.state = StateQueued
		r.enqueue(cand)
		return Decision{State: StateQueued, Err: r.admissionErr(cand, true, reason)}
	}
	r.rejections++
	return Decision{State: StateRejected, Err: r.admissionErr(cand, false, reason)}
}

// enqueue inserts by rank descending, FIFO (seq ascending) within a
// class.
func (r *refGate) enqueue(t *refTenant) {
	i := 0
	for i < len(r.queue) {
		q := r.queue[i]
		if q.pri.Rank() < t.pri.Rank() || (q.pri.Rank() == t.pri.Rank() && q.seq > t.seq) {
			break
		}
		i++
	}
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = t
}

// solve water-fills the admitted set plus cand (nil for a re-settle of
// the standing tenants) and returns each app's share and the tenants to
// preempt for the allocation to be viable. With allowEvict false
// (promotion) only a clean fit succeeds. A re-settle always succeeds:
// with nothing left to shed, the survivors share the shortage below
// floor.
func (r *refGate) solve(cand *refTenant, allowEvict bool) (map[string]float64, []*refTenant, bool) {
	pool := make([]*refTenant, 0, len(r.admitted)+1)
	for _, t := range r.admitted {
		pool = append(pool, t)
	}
	if cand != nil {
		pool = append(pool, cand)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].app < pool[j].app })
	floor := func(t *refTenant) float64 { return r.cfg.MinShareFraction*t.demand - 1e-9 }
	var victims []*refTenant
	for {
		demands := make([]Demand, len(pool))
		top := 0
		for i, t := range pool {
			demands[i] = Demand{App: t.app, Bps: t.demand, Weight: r.cfg.Weight(t.pri)}
			if t.pri.Rank() > top {
				top = t.pri.Rank()
			}
		}
		shares := FairShares(demands, r.capacity)
		viable := true
		for i, t := range pool {
			if shares[i] < floor(t) {
				viable = false
				break
			}
		}
		if viable {
			return r.shareMap(pool, shares), victims, true
		}
		if !allowEvict {
			return nil, nil, false
		}
		best := -1
		for i, t := range pool {
			switch {
			case t == cand:
				continue
			case cand != nil && t.pri.Rank() >= cand.pri.Rank():
				continue
			case cand == nil && (t.pri.Rank() >= top || shares[i] >= floor(t)):
				continue
			}
			if best < 0 || refLess(t, pool[best]) {
				best = i
			}
		}
		if best < 0 {
			if cand == nil {
				return r.shareMap(pool, shares), victims, true
			}
			return nil, nil, false
		}
		victims = append(victims, pool[best])
		pool = append(pool[:best], pool[best+1:]...)
	}
}

func (r *refGate) shareMap(pool []*refTenant, shares []float64) map[string]float64 {
	out := make(map[string]float64, len(pool))
	for i, t := range pool {
		out[t.app] = shares[i]
	}
	return out
}

// commit applies a solved allocation: victims are preempted (re-queued
// at the back of their class, or rejected with a full queue), cand joins
// the admitted set at its exact share, and every other tenant's cap
// moves only when it changed by more than 1e-6 — the gate's notification
// threshold. skip, the tenant whose demand change triggered the
// re-settle, always takes its exact share.
func (r *refGate) commit(cand *refTenant, shares map[string]float64, victims []*refTenant, skip *refTenant) {
	for _, v := range victims {
		delete(r.admitted, v.app)
		v.preemptions++
		r.preemptions++
		if len(r.queue) < r.cfg.QueueCapacity {
			v.state = StateQueued
			v.seq = r.nextSeq
			r.nextSeq++
			r.enqueue(v)
		} else {
			v.state = StateRejected
			r.rejections++
		}
	}
	if cand != nil {
		r.admitted[cand.app] = cand
	}
	for app, t := range r.admitted {
		c, ok := shares[app]
		if !ok {
			continue
		}
		if t == cand || t == skip || math.Abs(c-t.cap) > 1e-6 {
			t.cap = c
		}
	}
}

// rebalance re-settles the standing allocation after a departure, a
// demand change (skip) or a capacity change, then promotes queued
// tenants that now fit cleanly, in queue order.
func (r *refGate) rebalance(skip *refTenant) {
	if len(r.admitted) > 0 {
		shares, victims, _ := r.solve(nil, true)
		r.commit(nil, shares, victims, skip)
	}
	for i := 0; i < len(r.queue); {
		if r.cfg.MaxTenants > 0 && len(r.admitted) >= r.cfg.MaxTenants {
			return
		}
		q := r.queue[i]
		shares, _, ok := r.solve(q, false)
		if !ok {
			i++
			continue
		}
		r.queue = append(r.queue[:i], r.queue[i+1:]...)
		r.commit(q, shares, nil, nil)
		q.state = StateAdmitted
	}
}

// Snapshot mirrors Gate.Snapshot: admitted tenants sorted by app, then
// the queue in promotion order.
func (r *refGate) Snapshot() []Status {
	apps := make([]string, 0, len(r.admitted))
	for app := range r.admitted {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	out := make([]Status, 0, len(apps)+len(r.queue))
	for _, app := range apps {
		t := r.admitted[app]
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: t.state.String(),
			DemandBps: t.demand, CapBps: t.cap, Preemptions: t.preemptions,
		})
	}
	for _, t := range r.queue {
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: t.state.String(),
			DemandBps: t.demand, Preemptions: t.preemptions,
		})
	}
	return out
}

// Totals mirrors Gate.Totals. Caps are summed in water-fill order —
// saturation level demand/weight, then app — so the aggregate is a
// function of the tenant set alone.
func (r *refGate) Totals() Totals {
	ts := make([]*refTenant, 0, len(r.admitted))
	for _, t := range r.admitted {
		ts = append(ts, t)
	}
	level := func(t *refTenant) float64 { return t.demand / r.cfg.Weight(t.pri) }
	sort.Slice(ts, func(i, j int) bool {
		if li, lj := level(ts[i]), level(ts[j]); li != lj {
			return li < lj
		}
		return ts[i].app < ts[j].app
	})
	tt := Totals{
		Admitted: len(r.admitted), Queued: len(r.queue), CapacityBps: r.capacity,
		Preemptions: r.preemptions, Rejections: r.rejections,
	}
	for _, t := range ts {
		tt.DemandBps += t.demand
		tt.AllocatedBps += t.cap
	}
	return tt
}
