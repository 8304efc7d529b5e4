package sim

import "repro/internal/obs"

// Phase indices of the engine tracer, in canonical dispatch order
// (buildPhases' order). Exported through PhaseNames so aggregating
// layers (sweep grids, experiment suites) build merge-compatible
// tracers.
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

// PhaseNames returns the engine's phase names in canonical
// dispatch order — the axis every engine tracer is built over. Use it
// to construct an obs.Tracer that per-run tracers merge into.
func PhaseNames() []string {
	return append([]string(nil), phaseNames[:]...)
}

// NewPhaseTracer builds a tracer over the engine's phase axis, suitable
// as a merge target for any engine's Tracer (alloc probing is moot on a
// pure aggregate, so it is disabled).
func NewPhaseTracer() *obs.Tracer {
	return obs.NewTracer(phaseNames[:], -1)
}

// initObs builds the run's tracer and flight recorder. Step wraps each
// phase in one tracer probe whose wall time the recorder reuses, so with
// Config.Obs nil the hot path only tests a nil tracer.
func (e *Engine) initObs() {
	e.tracer = obs.NewTracer(phaseNames[:], e.cfg.Obs.AllocProbeEvery)
	if e.cfg.Obs.FlightRecorderEvents >= 0 {
		e.recorder = obs.NewFlightRecorder(e.cfg.Obs.FlightRecorderEvents)
	}
}

// Tracer returns the engine's phase tracer, nil unless Config.Obs is
// set. Reading it (obs.Tracer.Report) is safe while the engine steps.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// FlightRecorder returns the engine's flight recorder of recent phases
// and faults, nil unless Config.Obs enables it.
func (e *Engine) FlightRecorder() *obs.FlightRecorder { return e.recorder }
