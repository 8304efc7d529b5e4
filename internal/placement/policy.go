package placement

import "fmt"

// Policy defines the optimization objective: both solver backends minimize
//
//	sum_ij x_ij * PairCost(i,j)  +  sum_j (y_j - y_curr_j) * ActivationCost(j)
//
// over feasible assignments. The paper's four policies and the
// multi-objective extension are all instances.
//
// Both backends solve in a view's classes (Problem.classOf), so a policy
// must cost the apps of one class, which share their matrix rows, alike
// within a solve.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// PairCost is the cost of placing app i on server j.
	PairCost(p *Problem, i, j int) float64
	// ActivationCost is the cost of newly powering on server j.
	ActivationCost(p *Problem, j int) float64
}

// CarbonAware is the CarbonEdge policy: minimize carbon emissions (Eq. 6).
// Pair cost is dynamic power x zone intensity; activation cost is base
// power x zone intensity.
type CarbonAware struct{}

// Name implements Policy.
func (CarbonAware) Name() string { return "CarbonEdge" }

// PairCost implements Policy: grams CO2eq per hour.
func (CarbonAware) PairCost(p *Problem, i, j int) float64 {
	return p.PowerW[i][j] / 1000 * p.Servers[j].Intensity
}

// ActivationCost implements Policy.
func (CarbonAware) ActivationCost(p *Problem, j int) float64 {
	return p.Servers[j].BasePowerW / 1000 * p.Servers[j].Intensity
}

// LatencyAware is the baseline that places each app on the nearest
// feasible server (§6.1.3 baseline 1), the strategy edge platforms
// commonly use. Activation is free: proximity dominates.
type LatencyAware struct{}

// Name implements Policy.
func (LatencyAware) Name() string { return "Latency-aware" }

// PairCost implements Policy: round-trip milliseconds.
func (LatencyAware) PairCost(p *Problem, i, j int) float64 { return p.LatencyMs[i][j] }

// ActivationCost implements Policy.
func (LatencyAware) ActivationCost(p *Problem, j int) float64 { return 0 }

// EnergyAware minimizes energy consumption subject to the same constraints
// (§6.1.3 baseline 2).
type EnergyAware struct{}

// Name implements Policy.
func (EnergyAware) Name() string { return "Energy-aware" }

// PairCost implements Policy: average watts.
func (EnergyAware) PairCost(p *Problem, i, j int) float64 { return p.PowerW[i][j] }

// ActivationCost implements Policy.
func (EnergyAware) ActivationCost(p *Problem, j int) float64 { return p.Servers[j].BasePowerW }

// IntensityAware greedily prefers the greenest zones (lowest carbon
// intensity) regardless of how much energy the app consumes there
// (§6.1.3 baseline 3).
type IntensityAware struct{}

// Name implements Policy.
func (IntensityAware) Name() string { return "Intensity-aware" }

// PairCost implements Policy: the zone's carbon intensity.
func (IntensityAware) PairCost(p *Problem, i, j int) float64 { return p.Servers[j].Intensity }

// ActivationCost implements Policy: activation is not penalized; the
// greedy baseline chases green zones.
func (IntensityAware) ActivationCost(p *Problem, j int) float64 { return 0 }

// CarbonEnergyBlend is the multi-objective extension of Eq. 8:
// alpha * energy + (1-alpha) * carbon, with both terms min-max normalized
// over the instance so the weighting is scale-free. Alpha = 0 is vanilla
// CarbonEdge; alpha = 1 is Energy-aware.
//
// The ranges span the whole batch but are fixed for a solve, so the apps
// of one class still share their costs and the blend solves in classes.
type CarbonEnergyBlend struct {
	Alpha float64
	// normalization ranges, computed lazily per problem contents. A
	// Workspace reuses one Problem value across batches, so the cache
	// keys on (pointer, generation), not pointer identity alone.
	prepared    *Problem
	preparedGen uint64
	pMin, pMax  float64 // power range over feasible pairs
	fMin, fMax  float64 // carbon range over feasible pairs
}

// NewCarbonEnergyBlend builds the Eq. 8 objective for a given alpha.
func NewCarbonEnergyBlend(alpha float64) *CarbonEnergyBlend {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return &CarbonEnergyBlend{Alpha: alpha}
}

// Name implements Policy.
func (b *CarbonEnergyBlend) Name() string {
	return fmt.Sprintf("CarbonEdge(alpha=%.2f)", b.Alpha)
}

// prepare computes min-max normalization ranges over feasible pairs.
func (b *CarbonEnergyBlend) prepare(p *Problem) {
	if b.prepared == p && b.preparedGen == p.gen {
		return
	}
	first := true
	for i := range p.Apps {
		for j := range p.Servers {
			if !p.Feasible(i, j) {
				continue
			}
			pw := p.PowerW[i][j] + p.activationShare(j)
			cb := pw / 1000 * p.Servers[j].Intensity
			if first {
				b.pMin, b.pMax, b.fMin, b.fMax = pw, pw, cb, cb
				first = false
				continue
			}
			if pw < b.pMin {
				b.pMin = pw
			}
			if pw > b.pMax {
				b.pMax = pw
			}
			if cb < b.fMin {
				b.fMin = cb
			}
			if cb > b.fMax {
				b.fMax = cb
			}
		}
	}
	b.prepared = p
	b.preparedGen = p.gen
}

// activationShare spreads a server's base power over the apps that could
// land on it, so the normalized blend still sees activation pressure.
func (p *Problem) activationShare(j int) float64 {
	if p.Servers[j].PoweredOn {
		return 0
	}
	return p.Servers[j].BasePowerW / float64(len(p.Apps))
}

// PairCost implements Policy.
func (b *CarbonEnergyBlend) PairCost(p *Problem, i, j int) float64 {
	b.prepare(p)
	pw := p.PowerW[i][j] + p.activationShare(j)
	cb := pw / 1000 * p.Servers[j].Intensity
	return b.Alpha*norm(pw, b.pMin, b.pMax) + (1-b.Alpha)*norm(cb, b.fMin, b.fMax)
}

// ActivationCost implements Policy. Activation is folded into PairCost via
// activationShare so that normalization covers it.
func (b *CarbonEnergyBlend) ActivationCost(p *Problem, j int) float64 { return 0 }

func norm(v, lo, hi float64) float64 {
	if hi-lo < 1e-12 {
		return 0
	}
	return (v - lo) / (hi - lo)
}
