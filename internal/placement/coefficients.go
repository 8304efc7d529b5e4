package placement

import (
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
// at all. It is the one derivation of those cells — the Workspace and the
// simulator's release of a departing app both go through it, so what is
// released is exactly what was committed.
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
