package placement

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// RTTFunc returns the round-trip latency in milliseconds between an app's
// source location and a server's data center.
type RTTFunc func(source, dc string) float64

// hostMemPerAppMB is the host-memory footprint charged to every placed
// application (runtime, buffers) on top of its model's device memory.
const hostMemPerAppMB = 64

// mbpsPerRequest is the network bandwidth charged per request/second.
const mbpsPerRequest = 2.0

// Coefficients derives an app's cells on one device from its (model,
// device) profile and request rate: the demand vector R_ij and dynamic
// power draw E_ij of the formulation, and whether the device can host it
// at all. It is the one derivation of those cells — Build, the Workspace
// and the simulator's release of a departing app all go through it, so
// what is released is exactly what was committed.
//
// The compute dimension carries the device occupancy (busy-milliseconds
// per second); memory goes to the GPU dimension for accelerator models and
// to host memory for CPU models. An app whose occupancy exceeds 1000
// saturates the device: no single server of that type can serve it (ok
// false, zero cells).
func Coefficients(prof energy.Profile, rate float64) (demand cluster.Resources, powerW float64, ok bool) {
	occupancyMilli := rate * prof.InferenceMs
	if occupancyMilli > 1000 {
		return cluster.Resources{}, 0, false
	}
	if prof.Device != energy.XeonE5.Name {
		demand = cluster.NewResources(occupancyMilli, hostMemPerAppMB, prof.MemMB, rate*mbpsPerRequest)
	} else {
		demand = cluster.NewResources(occupancyMilli, prof.MemMB, 0, rate*mbpsPerRequest)
	}
	return demand, rate * prof.EnergyPerRequestJ(), true
}

// Build assembles a Problem from apps, the placement view of servers, a
// latency oracle, and the profiling service's (model, device) table. It
// fills the R_ij, E_ij, and L_ij matrices of the formulation:
//
//   - Demand and PowerW: Coefficients of the (model, device) profile.
//   - LatencyMs: from the RTT oracle.
//   - Compatible: whether a profile exists for (model, device) and the
//     app does not saturate the device.
func Build(apps []App, servers []Server, rtt RTTFunc, profile func(model, device string) (energy.Profile, error)) (*Problem, error) {
	if rtt == nil {
		return nil, fmt.Errorf("placement: nil RTT oracle")
	}
	if profile == nil {
		profile = energy.ProfileFor
	}
	// Memoize (model, device) resolution: the profile table is tiny but a
	// dense fill queries it once per matrix cell — O(apps x servers)
	// repeated lookups on the hot path for nothing.
	type profMemo struct {
		prof energy.Profile
		ok   bool
	}
	memo := make(map[string]profMemo)
	lookup := func(model, device string) (energy.Profile, bool) {
		key := model + "\x00" + device
		m, hit := memo[key]
		if !hit {
			prof, err := profile(model, device)
			m = profMemo{prof: prof, ok: err == nil}
			memo[key] = m
		}
		return m.prof, m.ok
	}
	p := NewProblem(apps, servers)
	for i, a := range apps {
		if a.RatePerSec < 0 {
			return nil, fmt.Errorf("placement: app %s has negative rate", a.ID)
		}
		for j, s := range servers {
			p.LatencyMs[i][j] = rtt(a.Source, s.DC)
			prof, ok := lookup(a.Model, s.Device)
			if !ok {
				p.Compatible[i][j] = false
				continue
			}
			d, w, ok := Coefficients(prof, a.RatePerSec)
			p.Compatible[i][j] = ok
			p.Demand[i][j], p.PowerW[i][j] = d, w
		}
	}
	return p, nil
}
