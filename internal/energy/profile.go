package energy

import (
	"fmt"
	"sort"
)

// Profile is one measured (application model, device) operating point: the
// output of the profiling service (§5.1) and the content of Figure 7. The
// placement formulation consumes these as E_ij (energy), R_ij (resource
// demand), and the service-time component of L_ij.
type Profile struct {
	Model  string
	Device string
	// InferenceMs is per-request service time in milliseconds (Fig 7c).
	InferenceMs float64
	// DynamicW is the marginal power draw above idle while serving.
	DynamicW float64
	// MemMB is the device memory footprint (Fig 7b).
	MemMB float64
	// CPUMilli is host CPU demand in millicores while serving.
	CPUMilli float64
}

// EnergyPerRequestJ returns the marginal energy per request in joules
// (Fig 7a): dynamic power x service time.
func (p Profile) EnergyPerRequestJ() float64 {
	return p.DynamicW * p.InferenceMs / 1000
}

// Workload model names used throughout the evaluation.
const (
	ModelEfficientNetB0 = "EfficientNetB0"
	ModelResNet50       = "ResNet50"
	ModelYOLOv4         = "YOLOv4"
	// ModelSci is the CPU-based scientific/sensor-processing application
	// (the "Sci" workload of Figure 10).
	ModelSci = "Sci"
)

// builtinProfiles reproduces Figure 7: energy spans ~45x across models on
// the same device (EfficientNetB0 vs YOLOv4 on Orin Nano) and the GTX 1080
// is the fastest but most power-hungry device, while the Orin Nano serves
// the same load with ~95% less energy once base power is accounted for.
var builtinProfiles = []Profile{
	// EfficientNetB0: tiny model, single-digit-millisecond inference.
	{ModelEfficientNetB0, OrinNano.Name, 4.0, 5, 45, 250},
	{ModelEfficientNetB0, A2.Name, 2.2, 22, 55, 250},
	{ModelEfficientNetB0, GTX1080.Name, 1.1, 95, 80, 250},
	// ResNet50: mid-size classification model.
	{ModelResNet50, OrinNano.Name, 14, 9, 115, 400},
	{ModelResNet50, A2.Name, 8, 42, 135, 400},
	{ModelResNet50, GTX1080.Name, 3.8, 130, 185, 400},
	// YOLOv4: detection model, the heavyweight of Figure 7.
	{ModelYOLOv4, OrinNano.Name, 42, 10.8, 330, 700},
	{ModelYOLOv4, A2.Name, 27, 48, 410, 700},
	{ModelYOLOv4, GTX1080.Name, 11.5, 165, 490, 700},
	// Sci: CPU-bound numpy-style pipeline on the Xeon host.
	{ModelSci, XeonE5.Name, 48, 38, 220, 2000},
}

// Profiles returns the built-in profile table (copy).
func Profiles() []Profile {
	return append([]Profile(nil), builtinProfiles...)
}

// ProfileFor returns the profile for (model, device).
func ProfileFor(model, device string) (Profile, error) {
	for _, p := range builtinProfiles {
		if p.Model == model && p.Device == device {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("energy: no profile for model %q on device %q", model, device)
}

// ModelsProfiled returns the distinct model names, sorted.
func ModelsProfiled() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range builtinProfiles {
		if !seen[p.Model] {
			seen[p.Model] = true
			out = append(out, p.Model)
		}
	}
	sort.Strings(out)
	return out
}
