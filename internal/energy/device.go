// Package energy models the power and energy behaviour of heterogeneous
// edge hardware: the device catalogue from the paper's testbed (§6.1.2),
// the measured per-model inference profiles of Figure 7, linear
// base+proportional server power models, and RAPL-style cumulative energy
// meters used by the telemetry service.
package energy

import "fmt"

// DeviceKind distinguishes CPU hosts from GPU accelerators.
type DeviceKind int

// Device kinds.
const (
	KindCPU DeviceKind = iota
	KindGPU
)

// String implements fmt.Stringer.
func (k DeviceKind) String() string {
	if k == KindCPU {
		return "cpu"
	}
	return "gpu"
}

// Device describes a compute device the placement policies can target.
type Device struct {
	Name      string
	Kind      DeviceKind
	CUDACores int
	// MemMB is device memory in MB (GPU memory for GPUs, host RAM for
	// CPU hosts).
	MemMB int
	// IdleW is the device's power draw when powered on but idle — the
	// base power B_j of the formulation (Table 2).
	IdleW float64
	// MaxW is the power draw at full utilization (TDP).
	MaxW float64
}

// PowerAt returns the device's power draw in watts at the given
// utilization in [0,1], using the standard linear power-proportionality
// model P(u) = idle + u*(max-idle).
func (d Device) PowerAt(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return d.IdleW + util*(d.MaxW-d.IdleW)
}

// Catalogue devices: the three GPUs profiled in Figure 7 plus the testbed's
// Xeon host (Dell PowerEdge R630, §6.1.2).
var (
	OrinNano = Device{Name: "Orin Nano", Kind: KindGPU, CUDACores: 1024, MemMB: 8192, IdleW: 4, MaxW: 15}
	A2       = Device{Name: "A2", Kind: KindGPU, CUDACores: 1280, MemMB: 16384, IdleW: 9, MaxW: 60}
	GTX1080  = Device{Name: "GTX 1080", Kind: KindGPU, CUDACores: 2560, MemMB: 8192, IdleW: 38, MaxW: 180}
	XeonE5   = Device{Name: "Xeon E5-2660v3", Kind: KindCPU, CUDACores: 0, MemMB: 262144, IdleW: 95, MaxW: 210}
)

// catalogue is the device list in Devices' order.
var catalogue = [...]Device{OrinNano, A2, GTX1080, XeonE5}

// Devices returns the full catalogue.
func Devices() []Device { return append([]Device(nil), catalogue[:]...) }

// DeviceByName looks up a catalogue device. It allocates nothing on a
// hit, so the simulator's fault phase may call it.
func DeviceByName(name string) (Device, error) {
	for _, d := range catalogue {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("energy: unknown device %q", name)
}
