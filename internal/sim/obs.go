package sim

import "repro/internal/obs"

// Phase indices of the engine tracer, in canonical dispatch order
// (buildPhases' order). Aggregating layers (sweep grids, experiment
// suites) build merge-compatible tracers through NewPhaseTracer.
const (
	phaseFaultsIdx = iota
	phaseCarbonIdx
	phaseDepartIdx
	phaseRedeployIdx
	phaseArriveIdx
	phasePlaceIdx
	phaseTrafficIdx
	phaseAccrueIdx
	numPhases
)

// phaseNames are the phase kinds in phase-index order.
var phaseNames = [numPhases]string{
	"faults", "carbon-tick", "departures", "redeploy",
	"arrivals", "placement", "traffic", "accrual",
}

// NewPhaseTracer builds a tracer over the engine's phase axis, suitable
// as a merge target for any engine's Tracer (alloc probing is moot on a
// pure aggregate, so it is disabled).
func NewPhaseTracer() *obs.Tracer {
	return obs.NewTracer(phaseNames[:], -1)
}

// initObs builds the run's tracer. Step wraps each phase in one tracer
// probe, so with Config.Obs nil the hot path only tests a nil tracer.
func (e *Engine) initObs() {
	e.tracer = obs.NewTracer(phaseNames[:], obs.DefaultAllocProbeEvery)
}

// Tracer returns the engine's phase tracer, nil unless Config.Obs is
// set. Reading it (obs.Tracer.Report) is safe while the engine steps.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }
