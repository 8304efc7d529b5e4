package cluster

import "repro/internal/energy"

// Server is one edge server's static description: a host device (and
// optional accelerator) with a multi-dimensional capacity. Its power
// state, allocations and energy meter belong to whoever runs it (the
// orchestrator's server table).
type Server struct {
	ID string
	// DC is the ID of the data center hosting this server.
	DC string
	// Device is the accelerator (or CPU host) profile that determines
	// power draw and which workload profiles apply.
	Device energy.Device
	// Capacity is the total allocatable resource vector.
	Capacity Resources
}

// NewServer describes a server.
func NewServer(id, dc string, dev energy.Device, capacity Resources) *Server {
	return &Server{ID: id, DC: dc, Device: dev, Capacity: capacity}
}
