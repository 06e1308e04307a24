package tenant

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rasc.dev/rasc/internal/spec"
)

// equivalenceSeeds are the operation-stream seeds every config runs.
var equivalenceSeeds = []int64{42, 7, 99, 2024, 31337}

// equivalenceOps is the operation count per seed.
const equivalenceOps = 1500

// TestGateIncrementalEquivalence feeds the same randomized operation
// sequence — admissions across priority classes, demand changes, releases,
// capacity resizes — to the gate and to the refGate reference model (a
// full FairShares re-solve per event), and requires their externally
// visible state to stay identical after every operation: the admission
// decision itself (verdict error included), every tenant's state and cap,
// the queue order, and the totals. Demands are integers and class weights
// powers of two, so the two allocators' float arithmetic agrees and
// equality is bit-level. The table covers the default contention posture,
// the tenant-limit parking path and a disabled queue (every infeasible
// admission and every preemption becomes a rejection). Run it with -race.
func TestGateIncrementalEquivalence(t *testing.T) {
	// want names a verdict ("state: reason") the stream must produce at
	// least once, proving the row exercises its path.
	configs := []struct {
		name string
		cfg  Config
		want string
	}{
		{"contended", Config{CapacityBps: 1e6, QueueCapacity: 32, MinShareFraction: 0.25},
			"queued: fair share below guaranteed floor"},
		{"max-tenants", Config{CapacityBps: 1e6, QueueCapacity: 32, MinShareFraction: 0.25, MaxTenants: 20},
			"queued: tenant limit reached"},
		{"no-queue", Config{CapacityBps: 1e6, QueueCapacity: -1, MinShareFraction: 0.25},
			"rejected: fair share below guaranteed floor"},
	}
	for _, tc := range configs {
		for _, seed := range equivalenceSeeds {
			t.Run(fmt.Sprintf("%s/seed-%d", tc.name, seed), func(t *testing.T) {
				verdicts := runEquivalence(t, seed, tc.cfg)
				if verdicts[tc.want] == 0 {
					t.Fatalf("no %q verdict in the stream (saw %v)", tc.want, verdicts)
				}
			})
		}
	}
}

// runEquivalence drives a gate and a refGate built from cfg through the
// seeded operation stream and returns how often each queued/rejected
// verdict ("state: reason") occurred.
func runEquivalence(t *testing.T, seed int64, cfg Config) map[string]int {
	t.Helper()
	g, ref := NewGate(cfg), newRefGate(cfg)
	rng := rand.New(rand.NewSource(seed))
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}

	compare := func(step int, op string) {
		t.Helper()
		if got, want := g.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): snapshot diverged from the reference\ngot:  %+v\nwant: %+v", step, op, got, want)
		}
		if got, want := g.Totals(), ref.Totals(); got != want {
			t.Fatalf("step %d (%s): totals diverged\ngot:  %+v\nwant: %+v", step, op, got, want)
		}
	}

	verdicts := make(map[string]int)
	for step := 0; step < equivalenceOps; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // admit: new app, or demand change on an existing one
			app := fmt.Sprintf("app-%03d", rng.Intn(80))
			pri := pris[rng.Intn(len(pris))]
			demand := float64(1 + rng.Intn(300000))
			want := ref.Admit(app, pri, demand)
			if got := g.Admit(app, pri, demand, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: admit(%s, %s, %v): gate decided %+v, reference %+v",
					step, app, pri, demand, got, want)
			}
			var ae *AdmissionError
			if errors.As(want.Err, &ae) {
				verdicts[want.State.String()+": "+ae.Reason]++
			}
			compare(step, "admit "+app)
		case 5, 6, 7: // release (promotes from the queue)
			app := fmt.Sprintf("app-%03d", rng.Intn(80))
			g.Release(app)
			ref.Release(app)
			compare(step, "release "+app)
		case 8: // grow or shrink capacity (shrink can preempt)
			c := float64(100000 + rng.Intn(2000000))
			g.SetCapacity(c)
			ref.SetCapacity(c)
			compare(step, fmt.Sprintf("capacity %v", c))
		default: // delta resize through AddCapacity
			d := float64(rng.Intn(200001) - 100000)
			if ref.capacity+d <= 0 {
				continue
			}
			g.AddCapacity(d)
			ref.AddCapacity(d)
			compare(step, fmt.Sprintf("capacity += %v", d))
		}
	}
	if tt := ref.Totals(); tt.Admitted == 0 || tt.Preemptions == 0 {
		t.Fatalf("totals %+v: churn must end with tenants admitted and have preempted some", tt)
	}
	return verdicts
}

// TestGateIncrementalNotificationsConsistent checks that every cap the
// incremental gate announces matches the cap it actually holds for that
// tenant once the dust settles — the fan-out may skip unchanged tenants
// but must never deliver a stale value last.
func TestGateIncrementalNotificationsConsistent(t *testing.T) {
	rec := newRecorder()
	g := NewGate(Config{CapacityBps: 10000, MinShareFraction: 0.1})
	g.Admit("a", spec.Standard, 8000, rec)
	g.Admit("b", spec.Standard, 8000, rec)
	g.Admit("c", spec.BestEffort, 8000, rec)
	g.SetCapacity(6000)
	g.SetCapacity(15000)
	rec.mu.Lock()
	caps := make(map[string]float64, len(rec.caps))
	for app, c := range rec.caps {
		caps[app] = c
	}
	rec.mu.Unlock()
	if len(caps) == 0 {
		t.Fatal("no cap notifications delivered under contention churn")
	}
	for app, announced := range caps {
		got, ok := g.CapBps(app)
		if !ok {
			continue // preempted after the notification: nothing to compare
		}
		if math.Abs(got-announced) > 1e-6 {
			t.Errorf("%s: last announced cap %v, gate holds %v", app, announced, got)
		}
	}
}

// TestGateTotalsDeterministic pins that Totals is a function of the gate's
// state alone: repeated calls on an unchanged, contended gate (caps are
// fractional water-level shares) return bit-identical aggregates.
func TestGateTotalsDeterministic(t *testing.T) {
	g := NewGate(Config{CapacityBps: 1e6, QueueCapacity: 64, MinShareFraction: 0.1})
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		g.Admit(fmt.Sprintf("app-%02d", i), pris[i%len(pris)], float64(10000+rng.Intn(90000)), nil)
	}
	first := g.Totals()
	if first.Admitted != 40 || first.AllocatedBps >= first.DemandBps {
		t.Fatalf("totals %+v: want 40 contended tenants", first)
	}
	for i := 0; i < 200; i++ {
		if got := g.Totals(); got != first {
			t.Fatalf("call %d: totals %+v, first call %+v", i, got, first)
		}
	}
}
