// Package tenant is the multi-tenancy layer between the submission entry
// points and the composers: a per-cluster admission gate with priority
// classes, weighted max-min fair-share rate caps (water-filling), an
// admission queue, and preemption of the lowest-priority tenants under
// contention. It exists so that hundreds of concurrent applications
// contend through an explicit allocation policy instead of silently
// degrading each other by first-come-first-served capacity decrement.
package tenant

import (
	"math"
	"sort"
)

// Demand is one tenant's input to the fairness allocator.
type Demand struct {
	// App identifies the tenant (ties in the water level are broken by
	// App so allocations are deterministic).
	App string
	// Bps is the tenant's requested aggregate rate in bits/sec.
	Bps float64
	// Weight is the tenant's fairness weight (priority class weight);
	// non-positive weights are treated as the minimum weight 1.
	Weight float64
}

// FairShares computes the weighted max-min fair allocation of capacity
// across the demands by water-filling: the water level rises uniformly
// per unit of weight; a tenant whose demand is met leaves the pool and
// its surplus is redistributed among the still-unsatisfied tenants. The
// result, indexed like demands, satisfies the classic invariants:
//
//   - no tenant is allocated more than its demand;
//   - the allocation is work-conserving: either every tenant is
//     satisfied or the full capacity is allocated;
//   - all unsatisfied tenants share the same normalized allocation
//     share/weight (the final water level).
//
// The computation is deterministic: equal inputs give bit-equal outputs.
func FairShares(demands []Demand, capacityBps float64) []float64 {
	out := make([]float64, len(demands))
	if capacityBps <= 0 || len(demands) == 0 {
		return out
	}
	// Sort indexes by the level at which each tenant saturates
	// (demand/weight), tie-broken by app for determinism.
	type entry struct {
		idx    int
		level  float64 // demand/weight: the water level that satisfies it
		weight float64
	}
	entries := make([]entry, 0, len(demands))
	var weightSum float64
	for i, d := range demands {
		w := d.Weight
		if w <= 0 {
			w = 1
		}
		if d.Bps <= 0 {
			continue // zero demand: zero share, not in the pool
		}
		entries = append(entries, entry{idx: i, level: d.Bps / w, weight: w})
		weightSum += w
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].level != entries[j].level {
			return entries[i].level < entries[j].level
		}
		return demands[entries[i].idx].App < demands[entries[j].idx].App
	})
	remaining := capacityBps
	for k, e := range entries {
		if weightSum <= 0 {
			break
		}
		level := remaining / weightSum
		if level >= e.level {
			// The water level reaches this tenant's demand: satisfy it
			// exactly and redistribute the surplus.
			out[e.idx] = demands[e.idx].Bps
			remaining -= demands[e.idx].Bps
			weightSum -= e.weight
			continue
		}
		// Every remaining tenant (this one and all later, which saturate
		// at even higher levels) is unsatisfied: they split the remaining
		// capacity at the final water level.
		for _, u := range entries[k:] {
			out[u.idx] = level * u.weight
		}
		break
	}
	// Guard against float drift leaving a share microscopically above
	// demand.
	for i, d := range demands {
		if out[i] > d.Bps {
			out[i] = d.Bps
		}
		if out[i] < 0 || math.IsNaN(out[i]) {
			out[i] = 0
		}
	}
	return out
}
