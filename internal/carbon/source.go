// Package carbon models the electric grid's carbon intensity as seen by
// CarbonEdge: carbon zones (the spatial unit reported by services like
// Electricity Maps), per-zone energy mixes, synthetic hourly trace
// generation for a full year, and the carbon-intensity service that exposes
// real-time values and forecasts to the placement policies.
//
// The paper consumes Electricity Maps traces for 148 zones (54 US, 45
// Europe) for 2023. That data is proprietary, so this package substitutes a
// dispatch-based generator: each zone is described by its generation
// capacities per source, and hourly carbon intensity emerges from a merit-
// order dispatch against a diurnal/seasonal demand curve with stochastic
// solar and wind availability. The named zones from the paper's four
// mesoscale regions carry hand-calibrated mixes so that the headline
// spreads (2.5x Florida, 7.9x West US, 2.2x Italy, 19.5x instantaneous /
// 10.8x yearly Central Europe) reproduce.
package carbon

// Source identifies an electricity generation source.
type Source int

// Generation sources, ordered by merit-order dispatch priority (must-run
// renewables and baseload first, dispatchable fossil last).
const (
	Solar Source = iota
	Wind
	Hydro
	Nuclear
	Biomass
	Gas
	Oil
	Coal
	numSources
)

// EmissionFactor returns the lifecycle carbon intensity of the source in
// g.CO2eq/kWh. Values are the IPCC AR5 median lifecycle factors, the same
// basis Electricity Maps uses.
func (s Source) EmissionFactor() float64 {
	switch s {
	case Solar:
		return 41
	case Wind:
		return 11
	case Hydro:
		return 24
	case Nuclear:
		return 12
	case Biomass:
		return 230
	case Gas:
		return 490
	case Oil:
		return 650
	case Coal:
		return 820
	default:
		return 0
	}
}

// Renewable reports whether the source is variable-renewable (must-run,
// zero marginal cost, weather dependent).
func (s Source) Renewable() bool { return s == Solar || s == Wind }

// Mix is a generation snapshot: energy produced per source over one hour,
// in arbitrary consistent units (we use "demand units", where 1.0 is the
// zone's mean hourly demand).
type Mix [numSources]float64

// Total returns the total generation across sources.
func (m Mix) Total() float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// Intensity returns the weighted-average carbon intensity of the mix in
// g.CO2eq/kWh (§2.1 of the paper). A zero mix yields 0.
func (m Mix) Intensity() float64 {
	total := m.Total()
	if total <= 0 {
		return 0
	}
	var g float64
	for s, v := range m {
		g += v * Source(s).EmissionFactor()
	}
	return g / total
}

// Shares returns each source's fraction of total generation. A zero mix
// yields all zeros.
func (m Mix) Shares() Mix {
	total := m.Total()
	if total <= 0 {
		return Mix{}
	}
	var out Mix
	for s, v := range m {
		out[s] = v / total
	}
	return out
}
