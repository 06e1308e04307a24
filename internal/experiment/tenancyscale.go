package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/tenant"
)

// TenancyScaleConfig parameterizes the tenancy-at-scale scenario: a gate
// with a per-host capacity ledger carrying a four-digit tenant
// population through admission, steady churn, host-death preemption
// storms and rejoin promotion storms, with every decision latency
// measured. It deliberately runs against the gate alone — no simulated
// network — so the numbers isolate the decision path the incremental
// allocator optimizes.
type TenancyScaleConfig struct {
	// Apps is the tenant population (default 1000). Hosts is the number
	// of ledger rows, standing in for simnet nodes (default 128).
	Apps  int
	Hosts int
	Seed  int64
	// Contention is aggregate demand over cluster capacity (default
	// 1.5), MinShareFraction the admission viability floor (default
	// 0.4 — high enough that the contended tail of the BestEffort class
	// parks, giving the storms something to preempt and promote).
	Contention       float64
	MinShareFraction float64
	// ChurnBatches release-then-admit cycles of BatchSize tenants each
	// (defaults 8 and 25) model steady application turnover.
	ChurnBatches int
	BatchSize    int
	// StormRounds (default 2) kill StormHostFraction (default 0.25) of
	// the hosts at once — a correlated failure whose capacity collapse
	// preempts the least-viable tenants — then rejoin them, promoting
	// the parked tenants back in one wave.
	StormRounds       int
	StormHostFraction float64
	// DeadHosts hosts (default 4) die permanently at the end, each with
	// a duplicated death verdict to exercise exactly-once release.
	DeadHosts int
	// RecomputeOps timed capacity perturbations (default 50) measure
	// the standalone recompute+fan-out latency.
	RecomputeOps int
	// FairShareDeadband forwards to the gate config.
	FairShareDeadband float64
}

func (c *TenancyScaleConfig) defaults() {
	if c.Apps == 0 {
		c.Apps = 1000
	}
	if c.Hosts == 0 {
		c.Hosts = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Contention == 0 {
		c.Contention = 1.5
	}
	if c.MinShareFraction == 0 {
		c.MinShareFraction = 0.4
	}
	if c.ChurnBatches == 0 {
		c.ChurnBatches = 8
	}
	if c.BatchSize == 0 {
		c.BatchSize = 25
	}
	if c.StormRounds == 0 {
		c.StormRounds = 2
	}
	if c.StormHostFraction == 0 {
		c.StormHostFraction = 0.25
	}
	if c.DeadHosts == 0 {
		c.DeadHosts = 4
	}
	if c.RecomputeOps == 0 {
		c.RecomputeOps = 50
	}
}

// TenancyScaleResults is a completed scale run.
type TenancyScaleResults struct {
	Config TenancyScaleConfig
	// CapacityBps is the full-cluster budget before any host died.
	CapacityBps float64
	// TimedAdmits is the number of admission decisions behind the
	// latency percentiles (initial build plus churn re-admissions).
	TimedAdmits                  int
	AdmitP50, AdmitP95, AdmitMax time.Duration
	// RecomputeP50/P95 are over the RecomputeOps capacity
	// perturbations, each a full re-settle plus fan-out.
	RecomputeP50, RecomputeP95 time.Duration
	// Preempted/Promoted/CapNotices count owner callbacks delivered
	// across the whole scenario.
	Preempted, Promoted, CapNotices int64
	Stats                           tenant.GateStats
	// NotificationsPerRecompute is Stats.CapNotifications over
	// Stats.Recomputes — the fan-out amplification the deadband and
	// coalescing are meant to hold down.
	NotificationsPerRecompute float64
	Totals                    tenant.Totals
	Snapshot                  []tenant.Status
}

// scaleOwner counts owner callbacks; the same instance backs every
// tenant, so the totals are scenario-wide. The gate delivers
// notifications outside its lock but sequentially, so plain fields
// suffice.
type scaleOwner struct {
	capNotices, preempted, promoted int64
}

func (o *scaleOwner) TenantCapChanged(string, float64) { o.capNotices++ }
func (o *scaleOwner) TenantPreempted(string)           { o.preempted++ }
func (o *scaleOwner) TenantPromoted(string)            { o.promoted++ }

// durPercentile returns the q-quantile (0..1) of the sorted samples.
func durPercentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// RunTenancyScale executes the tenancy-at-scale scenario:
//
//  1. Register Hosts equal host budgets sized so the population's
//     aggregate demand over-subscribes the cluster by Contention.
//  2. Admit Apps tenants (10% Critical / 30% Standard / 60% BestEffort,
//     randomized demands); the contended BestEffort tail parks. Every
//     admission is wall-clock timed. A quarter of the admitted tenants
//     report placements, charging the ledger.
//  3. ChurnBatches cycles release BatchSize tenants and admit BatchSize
//     fresh ones — each release promotes parked tenants when viable.
//  4. StormRounds correlated host failures remove a quarter of the
//     hosts (preemption storm as capacity collapses), then rejoin them
//     (promotion storm as it recovers).
//  5. DeadHosts die permanently, each with a duplicate verdict — the
//     budget must come off exactly once.
//  6. RecomputeOps timed capacity perturbations measure the standalone
//     recompute+fan-out path.
func RunTenancyScale(cfg TenancyScaleConfig) (*TenancyScaleResults, error) {
	cfg.defaults()
	if cfg.DeadHosts+int(cfg.StormHostFraction*float64(cfg.Hosts)) >= cfg.Hosts {
		return nil, fmt.Errorf("experiment: %d hosts cannot absorb the storm and %d permanent deaths", cfg.Hosts, cfg.DeadHosts)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	own := &scaleOwner{}

	// The population's demands are drawn first so the host budgets can
	// be derived from real aggregate demand.
	pris := []spec.Priority{
		spec.Critical,
		spec.Standard, spec.Standard, spec.Standard,
		spec.BestEffort, spec.BestEffort, spec.BestEffort,
		spec.BestEffort, spec.BestEffort, spec.BestEffort,
	}
	nextID := 0
	draw := func() (string, spec.Priority, float64) {
		app := fmt.Sprintf("app-%05d", nextID)
		pri := pris[nextID%len(pris)]
		nextID++
		return app, pri, 1e5 + rng.Float64()*1.9e6
	}
	type ten struct {
		app    string
		pri    spec.Priority
		demand float64
	}
	pop := make([]ten, cfg.Apps)
	var totalDemand float64
	for i := range pop {
		app, pri, d := draw()
		pop[i] = ten{app, pri, d}
		totalDemand += d
	}
	capacity := totalDemand / cfg.Contention
	perHost := capacity / float64(cfg.Hosts)

	g := tenant.NewGate(tenant.Config{
		MinShareFraction:  cfg.MinShareFraction,
		QueueCapacity:     cfg.Apps,
		PerHostLedger:     true,
		FairShareDeadband: cfg.FairShareDeadband,
	})
	hostID := func(i int) string { return fmt.Sprintf("host-%03d", i) }
	for i := 0; i < cfg.Hosts; i++ {
		g.UpsertHost(hostID(i), perHost)
	}
	// Storm and permanently dying hosts come off the front of the id
	// space; placements are charged onto the stable back half so a dead
	// host never strands a committed charge in this scenario (the gate
	// tolerates that too — it is just not what this run measures).
	stormHosts := int(cfg.StormHostFraction * float64(cfg.Hosts))
	if stormHosts == 0 {
		stormHosts = 1
	}
	stableFrom := stormHosts + cfg.DeadHosts

	admitLat := make([]time.Duration, 0, cfg.Apps+cfg.ChurnBatches*cfg.BatchSize)
	live := make([]string, 0, cfg.Apps)
	admitOne := func(t ten) {
		start := time.Now()
		dec := g.Admit(t.app, t.pri, t.demand, own)
		admitLat = append(admitLat, time.Since(start))
		if dec.State == tenant.StateRejected {
			return
		}
		live = append(live, t.app)
		// A quarter of the admitted tenants report a placement, charging
		// half their cap onto one stable host.
		if dec.State == tenant.StateAdmitted && len(live)%4 == 0 {
			host := hostID(stableFrom + rng.Intn(cfg.Hosts-stableFrom))
			g.SetPlacements(t.app, map[string]float64{host: dec.CapBps / 2})
		}
	}
	for _, t := range pop {
		admitOne(t)
	}

	// Steady churn: each batch releases BatchSize random tenants (each
	// release is a promotion opportunity for the parked queue) and
	// admits BatchSize fresh ones.
	for b := 0; b < cfg.ChurnBatches; b++ {
		for j := 0; j < cfg.BatchSize && len(live) > 0; j++ {
			i := rng.Intn(len(live))
			g.Release(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for j := 0; j < cfg.BatchSize; j++ {
			app, pri, d := draw()
			admitOne(ten{app, pri, d})
		}
	}

	// Correlated failure storms: a quarter of the hosts die at once —
	// the capacity collapse preempts the least-viable tenants — then
	// rejoin, promoting the parked queue back in one wave.
	for r := 0; r < cfg.StormRounds; r++ {
		for i := 0; i < stormHosts; i++ {
			g.RemoveHost(hostID(i))
		}
		g.RemoveHost(hostID(0)) // duplicate verdict mid-storm: no effect
		for i := 0; i < stormHosts; i++ {
			g.UpsertHost(hostID(i), perHost)
		}
	}

	// Permanent deaths, each verdict duplicated: the budget comes off
	// exactly once.
	for i := stormHosts; i < stormHosts+cfg.DeadHosts; i++ {
		g.RemoveHost(hostID(i))
		g.RemoveHost(hostID(i))
	}

	// Standalone recompute latency: capacity perturbations well beyond
	// any configured deadband, alternating sign so the budget holds.
	recompLat := make([]time.Duration, 0, cfg.RecomputeOps)
	delta := 0.004 * capacity
	for i := 0; i < cfg.RecomputeOps; i++ {
		d := delta
		if i%2 == 1 {
			d = -delta
		}
		start := time.Now()
		g.AddCapacity(d)
		recompLat = append(recompLat, time.Since(start))
	}

	res := &TenancyScaleResults{
		Config:      cfg,
		CapacityBps: capacity,
		TimedAdmits: len(admitLat),
		Preempted:   own.preempted,
		Promoted:    own.promoted,
		CapNotices:  own.capNotices,
		Stats:       g.Stats(),
		Totals:      g.Totals(),
		Snapshot:    g.Snapshot(),
	}
	sort.Slice(admitLat, func(i, j int) bool { return admitLat[i] < admitLat[j] })
	res.AdmitP50 = durPercentile(admitLat, 0.5)
	res.AdmitP95 = durPercentile(admitLat, 0.95)
	res.AdmitMax = durPercentile(admitLat, 1)
	sort.Slice(recompLat, func(i, j int) bool { return recompLat[i] < recompLat[j] })
	res.RecomputeP50 = durPercentile(recompLat, 0.5)
	res.RecomputeP95 = durPercentile(recompLat, 0.95)
	if res.Stats.Recomputes > 0 {
		res.NotificationsPerRecompute = float64(res.Stats.CapNotifications) / float64(res.Stats.Recomputes)
	}
	return res, nil
}
