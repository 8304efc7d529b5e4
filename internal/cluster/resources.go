// Package cluster describes the edge infrastructure CarbonEdge places
// workloads onto: multi-dimensional server resources, heterogeneous
// servers, and edge data centers grouped into a managed cluster. It is a
// static description — what exists, where, and how big. The dynamic
// state (allocations against the formulation's resource constraints,
// Eq. 1; power states and their consistency rules, Eq. 4-5; energy
// meters) is owned by the orchestrator's server table, which copies the
// cluster once at construction.
package cluster

import (
	"fmt"
	"strings"
)

// ResourceKind indexes the resource dimensions tracked per server. Edge
// servers are constrained in several dimensions at once (§4.2 constraint
// class 1).
type ResourceKind int

// Tracked resource dimensions.
const (
	ResCPUMilli ResourceKind = iota // CPU in millicores
	ResMemMB                        // host memory in MB
	ResGPUMemMB                     // accelerator memory in MB
	ResNetMbps                      // network bandwidth in Mbps
	numResources
)

var resourceNames = [numResources]string{"cpu_milli", "mem_mb", "gpu_mem_mb", "net_mbps"}

// String implements fmt.Stringer.
func (k ResourceKind) String() string {
	if k < 0 || k >= numResources {
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
	return resourceNames[k]
}

// ResourceKinds lists all tracked dimensions.
func ResourceKinds() []ResourceKind {
	out := make([]ResourceKind, numResources)
	for i := range out {
		out[i] = ResourceKind(i)
	}
	return out
}

// Resources is a vector of resource quantities, one per ResourceKind.
type Resources [numResources]float64

// NewResources builds a resource vector.
func NewResources(cpuMilli, memMB, gpuMemMB, netMbps float64) Resources {
	var r Resources
	r[ResCPUMilli], r[ResMemMB], r[ResGPUMemMB], r[ResNetMbps] = cpuMilli, memMB, gpuMemMB, netMbps
	return r
}

// Add returns r + o element-wise.
func (r Resources) Add(o Resources) Resources {
	for k := range r {
		r[k] += o[k]
	}
	return r
}

// Sub returns r - o element-wise.
func (r Resources) Sub(o Resources) Resources {
	for k := range r {
		r[k] -= o[k]
	}
	return r
}

// Scale returns r with every dimension multiplied by f (capacity
// degradation and restoration).
func (r Resources) Scale(f float64) Resources {
	for k := range r {
		r[k] *= f
	}
	return r
}

// ClampNonNegative returns r with negative dimensions raised to zero.
func (r Resources) ClampNonNegative() Resources {
	for k := range r {
		if r[k] < 0 {
			r[k] = 0
		}
	}
	return r
}

// Fits reports whether r fits within capacity c in every dimension.
func (r Resources) Fits(c Resources) bool {
	for k := range r {
		if r[k] > c[k]+1e-9 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is >= 0 (within tolerance).
func (r Resources) NonNegative() bool {
	for _, v := range r {
		if v < -1e-9 {
			return false
		}
	}
	return true
}

// Dominant returns the largest utilization fraction of r against capacity
// c, ignoring dimensions with zero capacity. It is the utilization measure
// fed into the power-proportionality model.
func (r Resources) Dominant(c Resources) float64 {
	var m float64
	for k := range r {
		if c[k] > 0 {
			if f := r[k] / c[k]; f > m {
				m = f
			}
		}
	}
	return m
}

// String implements fmt.Stringer.
func (r Resources) String() string {
	parts := make([]string, 0, numResources)
	for k, v := range r {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", ResourceKind(k), v))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
