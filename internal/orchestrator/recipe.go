// Package orchestrator implements the CarbonEdge prototype of Section 5: a
// Sinfonia-like edge orchestrator with telemetry, carbon-intensity,
// profiling, and placement services, plus an HTTP API. Kubernetes and the
// Prometheus/RAPL/DCGM monitoring stack are emulated in-process: deployment
// recipes resolve to resource allocations on the emulated cluster, and
// power meters integrate the servers' modelled draw.
package orchestrator

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/energy"
)

// Recipe is the deployment unit (Sinfonia RECIPE, §5.1): everything needed
// to deploy one edge application and connect its client.
type Recipe struct {
	// Name uniquely identifies the deployment.
	Name string `json:"name"`
	// Model is the workload model to serve.
	Model string `json:"model"`
	// Source is the client's data-center/city attachment point.
	Source string `json:"source"`
	// SLOms is the round-trip latency requirement.
	SLOms float64 `json:"slo_ms"`
	// RatePerSec is the expected request rate.
	RatePerSec float64 `json:"rate_per_sec"`
}

// Validate reports structural problems.
func (r *Recipe) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("orchestrator: recipe needs a name")
	}
	if r.Model == "" {
		return fmt.Errorf("orchestrator: recipe %s needs a model", r.Name)
	}
	found := false
	for _, m := range energy.ModelsProfiled() {
		if m == r.Model {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("orchestrator: recipe %s references unprofiled model %q", r.Name, r.Model)
	}
	// NaN fails every comparison, so these test for the good range.
	if !(r.SLOms > 0) || math.IsInf(r.SLOms, 1) {
		return fmt.Errorf("orchestrator: recipe %s needs a finite positive SLO", r.Name)
	}
	if !(r.RatePerSec > 0) || math.IsInf(r.RatePerSec, 1) {
		return fmt.Errorf("orchestrator: recipe %s needs a finite positive rate", r.Name)
	}
	return nil
}

// DecodeRecipe parses a recipe from JSON.
func DecodeRecipe(r io.Reader) (*Recipe, error) {
	var rec Recipe
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("orchestrator: decoding recipe: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Deployment records where a recipe landed.
type Deployment struct {
	Recipe   Recipe `json:"recipe"`
	ServerID string `json:"server_id"`
	DCID     string `json:"dc_id"`
	ZoneID   string `json:"zone_id"`
	// RTTMs is the client-to-server round-trip latency.
	RTTMs float64 `json:"rtt_ms"`
	// PowerW is the app's modelled dynamic power draw.
	PowerW float64 `json:"power_w"`
}
