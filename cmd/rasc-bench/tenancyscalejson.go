package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"rasc.dev/rasc/internal/experiment"
)

// tenancyScaleReport is the BENCH_tenancy_scale.json schema: the
// 5k-tenant churn+storm scenario through the fair-share allocator,
// measured on admission decision latency and cap fan-out.
type tenancyScaleReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// The scenario: Apps tenants over Hosts ledger hosts at Contention
	// over-subscription, with churn batches and host-death storms (see
	// experiment.RunTenancyScale).
	Apps       int     `json:"apps"`
	Hosts      int     `json:"hosts"`
	Contention float64 `json:"contention"`
	// Deadband is the relative fair-share deadband of the run (the
	// production default posture; suppressed updates are counted, not
	// lost).
	Deadband float64 `json:"fair_share_deadband"`
	// AdmitP50BudgetMicros is the admit p50 ceiling the run fails above.
	AdmitP50BudgetMicros float64 `json:"admit_p50_budget_micros"`

	TimedAdmits      int     `json:"timed_admits"`
	AdmitP50Micros   float64 `json:"admit_p50_micros"`
	AdmitP95Micros   float64 `json:"admit_p95_micros"`
	AdmitMaxMicros   float64 `json:"admit_max_micros"`
	RecomputeP50Mics float64 `json:"recompute_p50_micros"`
	RecomputeP95Mics float64 `json:"recompute_p95_micros"`
	Recomputes       int64   `json:"recomputes"`
	CapNotifications int64   `json:"cap_notifications"`
	CoalescedEvents  int64   `json:"coalesced_cap_events"`
	NotifsPerRecomp  float64 `json:"notifications_per_recompute"`
	Preempted        int64   `json:"preempted"`
	Promoted         int64   `json:"promoted"`
	AdmittedAtEnd    int     `json:"admitted_at_end"`
	QueuedAtEnd      int     `json:"queued_at_end"`
}

const (
	tsApps     = 5000
	tsHosts    = 128
	tsDeadband = 1e-3
	// tsAdmitP50Budget fails the run when the admission p50 exceeds it:
	// the full-recompute allocator's committed 1,427 µs p50 on this
	// scenario divided by the 5x speedup floor that gate used to enforce.
	tsAdmitP50Budget = 285 * time.Microsecond
)

// runTenancyScaleBenchJSON runs the scale scenario, writes the report to
// path, and fails when the admission p50 exceeds tsAdmitP50Budget.
func runTenancyScaleBenchJSON(path string) error {
	// Lighter churn than the experiment defaults, unchanged since the
	// report compared against the full-recompute allocator, so the
	// numbers stay comparable with that history.
	cfg := experiment.TenancyScaleConfig{
		Apps:              tsApps,
		Hosts:             tsHosts,
		FairShareDeadband: tsDeadband,
		ChurnBatches:      4,
		BatchSize:         15,
		StormRounds:       1,
		RecomputeOps:      24,
	}
	// Warm up once at a small size (first-use allocations, map growth),
	// then measure.
	warm := cfg
	warm.Apps, warm.Hosts = 200, 16
	if _, err := experiment.RunTenancyScale(warm); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	res, err := experiment.RunTenancyScale(cfg)
	if err != nil {
		return err
	}
	mics := func(d time.Duration) float64 { return float64(d.Microseconds()) }
	report := tenancyScaleReport{
		GoVersion:            runtime.Version(),
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		Apps:                 res.Config.Apps,
		Hosts:                res.Config.Hosts,
		Contention:           res.Config.Contention,
		Deadband:             tsDeadband,
		AdmitP50BudgetMicros: mics(tsAdmitP50Budget),
		TimedAdmits:          res.TimedAdmits,
		AdmitP50Micros:       mics(res.AdmitP50),
		AdmitP95Micros:       mics(res.AdmitP95),
		AdmitMaxMicros:       mics(res.AdmitMax),
		RecomputeP50Mics:     mics(res.RecomputeP50),
		RecomputeP95Mics:     mics(res.RecomputeP95),
		Recomputes:           res.Stats.Recomputes,
		CapNotifications:     res.Stats.CapNotifications,
		CoalescedEvents:      res.Stats.CoalescedCapEvents,
		NotifsPerRecomp:      res.NotificationsPerRecompute,
		Preempted:            res.Preempted,
		Promoted:             res.Promoted,
		AdmittedAtEnd:        res.Totals.Admitted,
		QueuedAtEnd:          res.Totals.Queued,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if res.AdmitP50 > tsAdmitP50Budget {
		return fmt.Errorf("admit p50 %v above the %v budget", res.AdmitP50, tsAdmitP50Budget)
	}
	return nil
}
