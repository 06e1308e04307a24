package experiment

import (
	"math"
	"testing"

	"rasc.dev/rasc/internal/tenant"
)

// TestRunTenancyScaleSmall runs a scaled-down scenario and checks its
// structural invariants: the storms actually preempt and promote, the
// permanently dead hosts' budgets come off exactly once, and the final
// allocation is the closed-form weighted max-min fair share of the
// admitted demands at the final capacity.
func TestRunTenancyScaleSmall(t *testing.T) {
	cfg := TenancyScaleConfig{
		Apps: 80, Hosts: 16, Seed: 7,
		ChurnBatches: 3, BatchSize: 6,
		StormRounds: 1, DeadHosts: 2, RecomputeOps: 8,
	}
	res, err := RunTenancyScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("admit p50=%v p95=%v max=%v recompute p50=%v preempted=%d promoted=%d notices=%d (%.1f/recompute)",
		res.AdmitP50, res.AdmitP95, res.AdmitMax, res.RecomputeP50,
		res.Preempted, res.Promoted, res.CapNotices, res.NotificationsPerRecompute)

	if res.TimedAdmits != cfg.Apps+cfg.ChurnBatches*cfg.BatchSize {
		t.Errorf("timed %d admissions, want %d", res.TimedAdmits, cfg.Apps+cfg.ChurnBatches*cfg.BatchSize)
	}
	if res.Totals.Admitted == 0 || res.Totals.Queued == 0 {
		t.Errorf("totals %+v: want both admitted and parked tenants at this contention", res.Totals)
	}
	// The storm must have preempted someone on the capacity collapse and
	// promoted someone on the rejoin.
	if res.Preempted == 0 {
		t.Error("host-death storm preempted nobody")
	}
	if res.Promoted == 0 {
		t.Error("host-rejoin storm promoted nobody")
	}
	// Two hosts died permanently (with duplicated verdicts): the final
	// budget is the per-host budget times the survivors, exactly once.
	perHost := res.CapacityBps / float64(cfg.Hosts)
	// The recompute perturbations alternate ±delta starting with +, so
	// an even count nets out to the post-death capacity.
	want := perHost * float64(cfg.Hosts-cfg.DeadHosts)
	if got := res.Totals.CapacityBps; math.Abs(got-want) > 1e-6*want {
		t.Errorf("final capacity %v, want %v (dead-host budgets released exactly once)", got, want)
	}
	if res.Stats.Recomputes == 0 || res.Stats.CapNotifications == 0 {
		t.Errorf("stats %+v: want recomputes and notifications", res.Stats)
	}

	// With no deadband every cap is exact: each admitted tenant holds
	// its FairShares allocation over the admitted demands at the final
	// capacity.
	weights := map[string]float64{"critical": 4, "standard": 2, "best-effort": 1}
	var admitted []tenant.Status
	var demands []tenant.Demand
	for _, s := range res.Snapshot {
		if s.State != "admitted" {
			continue
		}
		w, ok := weights[s.Priority]
		if !ok {
			t.Fatalf("%s: unknown priority %q", s.App, s.Priority)
		}
		admitted = append(admitted, s)
		demands = append(demands, tenant.Demand{App: s.App, Bps: s.DemandBps, Weight: w})
	}
	if len(admitted) != res.Totals.Admitted {
		t.Fatalf("snapshot lists %d admitted tenants, totals %d", len(admitted), res.Totals.Admitted)
	}
	shares := tenant.FairShares(demands, res.Totals.CapacityBps)
	for i, s := range admitted {
		if diff := math.Abs(s.CapBps - shares[i]); diff > 1e-6*math.Max(1, shares[i]) {
			t.Errorf("%s cap %v, closed-form fair share %v", s.App, s.CapBps, shares[i])
		}
	}
}

// TestRunTenancyScaleDeadband pins that a configured deadband suppresses
// fan-out: the same scenario with a 1% band delivers fewer cap
// notifications per recompute and counts the suppressed updates.
func TestRunTenancyScaleDeadband(t *testing.T) {
	cfg := TenancyScaleConfig{
		Apps: 80, Hosts: 16, Seed: 7,
		ChurnBatches: 3, BatchSize: 6,
		StormRounds: 1, DeadHosts: 2, RecomputeOps: 8,
	}
	plain, err := RunTenancyScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FairShareDeadband = 0.01
	banded, err := RunTenancyScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if banded.Stats.CapNotifications >= plain.Stats.CapNotifications {
		t.Errorf("deadband did not reduce notifications: %d banded vs %d plain",
			banded.Stats.CapNotifications, plain.Stats.CapNotifications)
	}
	if banded.Stats.CoalescedCapEvents == 0 {
		t.Error("deadband suppressed nothing despite fewer notifications")
	}
}
