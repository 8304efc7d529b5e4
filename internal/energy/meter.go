package energy

import (
	"sync"
	"time"
)

// Meter is a RAPL-style cumulative energy counter: callers record intervals
// of observed power draw, and the meter integrates them into joules. The
// telemetry service exposes one meter per server (§5.1, "Power
// Monitoring"), mirroring how RAPL exposes package energy for CPUs and
// DCGM exposes board energy for GPUs.
//
// A Meter is safe for concurrent use.
type Meter struct {
	mu      sync.Mutex
	joules  float64
	lastW   float64
	samples int
}

// Record integrates p watts over duration d.
func (m *Meter) Record(p float64, d time.Duration) {
	if p < 0 || d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joules += p * d.Seconds()
	m.lastW = p
	m.samples++
}

// TotalJoules returns the cumulative energy.
func (m *Meter) TotalJoules() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joules
}

// TotalKWh returns the cumulative energy in kilowatt-hours, the unit carbon
// intensity is quoted against.
func (m *Meter) TotalKWh() float64 { return m.TotalJoules() / 3.6e6 }

// MeterState is the serializable form of a Meter, used by
// checkpoint/restore.
type MeterState struct {
	Joules  float64 `json:"joules"`
	LastW   float64 `json:"last_w"`
	Samples int     `json:"samples"`
}

// State exports the meter's accumulator.
func (m *Meter) State() MeterState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MeterState{Joules: m.joules, LastW: m.lastW, Samples: m.samples}
}

// Restore replaces the meter's accumulator with an exported state.
func (m *Meter) Restore(st MeterState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joules, m.lastW, m.samples = st.Joules, st.LastW, st.Samples
}
