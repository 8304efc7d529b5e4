package orchestrator

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/router"
)

// Tick-phase indices of the orchestrator's always-on tracer: the three
// sections of the tick loop plus the placement batch path.
const (
	tickFaultsIdx = iota
	tickTrafficIdx
	tickTelemetryIdx
	tickPlacementIdx
	numTickPhases
)

// tickPhaseNames are the tracer's phase names in index order.
var tickPhaseNames = [numTickPhases]string{"faults", "traffic", "telemetry", "placement"}

// initObs builds the orchestrator's observability: the tick-phase
// tracer, the flight recorder of applied fault events, and the metrics
// registry served at /metrics. All three are always on — the control
// plane ticks at wall-clock-scale rates, so tracing costs nothing
// measurable (alloc probing, tuned for the simulator's hot loop, stays
// off). Collectors read orchestrator state under o.mu at scrape time;
// nothing here touches the tick path beyond Begin/End pairs.
func (o *Orchestrator) initObs() {
	o.trace = obs.NewTracer(tickPhaseNames[:], -1)
	o.recorder = obs.NewFlightRecorder(obs.DefaultFlightRecorderEvents)
	r := obs.NewRegistry()
	o.registry = r

	// Carbon and energy (the /api/v1/metrics counters).
	r.CounterFunc("carbonedge_carbon_grams_total",
		"operational emissions accumulated by the telemetry loop (g CO2eq)",
		o.CarbonTotalG)
	r.CounterFunc("carbonedge_energy_kwh_total",
		"cluster energy consumed (kWh)", o.EnergyKWh)

	// Deployment lifecycle.
	r.GaugeFunc("carbonedge_deployments", "live deployments", func() float64 {
		o.mu.Lock()
		defer o.mu.Unlock()
		return float64(len(o.deployments))
	})
	r.GaugeFunc("carbonedge_pending_recipes",
		"recipes queued for the next placement batch", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(len(o.pending))
		})
	r.CounterFunc("carbonedge_deploy_batches_total",
		"placement batches committed", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.batches)
		})
	r.Register("carbonedge_deploy_latency_ms",
		"batch submit-to-commit latency", "summary", func(emit obs.EmitFunc) {
			o.mu.Lock()
			defer o.mu.Unlock()
			emit("_sum", "", o.DeployLatency.Sum())
			emit("_count", "", float64(o.DeployLatency.N()))
		})

	// Placement solver (the /api/v1/placement stats).
	r.GaugeFunc("carbonedge_placement_solve_ms",
		"last placement batch's solver wall time", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.lastSolve.SolveMs
		})
	r.GaugeFunc("carbonedge_placement_apps",
		"apps in the last solved placement instance", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.lastSolve.Apps)
		})
	r.Register("carbonedge_placement_exact_batches_total",
		"exact-backend batches by what closed them: the argmin certificate or branch and bound",
		"counter", func(emit obs.EmitFunc) {
			o.mu.Lock()
			defer o.mu.Unlock()
			emit("", obs.Labels("closed_by", "bound"), float64(o.boundBatches))
			emit("", obs.Labels("closed_by", "branch_and_bound"), float64(o.bnbBatches))
		})
	r.GaugeFunc("carbonedge_placement_candidates_mean",
		"mean candidate-shortlist size across the last batch's apps", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.lastSolve.CandidatesMean
		})

	// Request-level traffic (the /api/v1/traffic stats; all zero until
	// AttachTraffic).
	trafficCounter := func(name, help string, field func(*router.Stats) float64) {
		r.CounterFunc(name, help, func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.traffic == nil {
				return 0
			}
			return field(o.traffic.router.Stats())
		})
	}
	trafficCounter("carbonedge_requests_total",
		"requests offered to the traffic router",
		func(s *router.Stats) float64 { return float64(s.Requests) })
	trafficCounter("carbonedge_requests_slo_met_total",
		"requests served within the SLO",
		func(s *router.Stats) float64 { return float64(s.SLOMet) })
	trafficCounter("carbonedge_requests_spilled_total",
		"requests served by an SLO-violating replica under saturation",
		func(s *router.Stats) float64 { return float64(s.Spilled) })
	trafficCounter("carbonedge_requests_dropped_total",
		"requests no replica had capacity for",
		func(s *router.Stats) float64 { return float64(s.Dropped) })
	r.CounterFunc("carbonedge_overload_ticks_total",
		"ticks whose demand could not be fully absorbed", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.overloadTicks)
		})
	r.Register("carbonedge_request_latency_ms",
		"end-to-end response time over served requests", "summary", func(emit obs.EmitFunc) {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.traffic == nil {
				obs.EmitSketchSummary(emit, nil, 0.5, 0.95, 0.99)
				return
			}
			obs.EmitSketchSummary(emit, o.traffic.router.Stats().Latency, 0.5, 0.95, 0.99)
		})

	// Fault injection (the /api/v1/faults status).
	r.CounterFunc("carbonedge_faults_applied_total",
		"fault events consumed by ticks", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.faultsApplied)
		})
	r.CounterFunc("carbonedge_fault_evictions_total",
		"deployments forced off crashed servers", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.faultEvictions)
		})
	r.GaugeFunc("carbonedge_faults_pending",
		"scheduled fault events not yet due", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(o.faultq.Len())
		})
	r.GaugeFunc("carbonedge_servers_down",
		"currently crashed servers", func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(len(o.downServers))
		})

	// Tick-phase breakdown from the tracer.
	r.Register("carbonedge_tick_phase_seconds_total",
		"wall time spent in each tick phase", "counter", func(emit obs.EmitFunc) {
			for _, ps := range o.trace.Report() {
				emit("", obs.Labels("phase", ps.Name), float64(ps.TotalNs)/1e9)
			}
		})
	r.Register("carbonedge_tick_phase_calls_total",
		"executions of each tick phase", "counter", func(emit obs.EmitFunc) {
			for _, ps := range o.trace.Report() {
				emit("", obs.Labels("phase", ps.Name), float64(ps.Calls))
			}
		})
}

// PhaseReport snapshots the orchestrator's tick-phase tracer.
func (o *Orchestrator) PhaseReport() []obs.PhaseStat { return o.trace.Report() }

// RecentEvents returns the flight recorder's window of applied fault
// events, oldest first.
func (o *Orchestrator) RecentEvents() []obs.RecordedEvent { return o.recorder.Events() }

// Metrics returns the orchestrator's Prometheus-style registry (served
// at /metrics by API).
func (o *Orchestrator) Metrics() *obs.Registry { return o.registry }

// obsBody is the /api/v1/obs payload: the tick-phase breakdown plus the
// flight recorder's recent fault events.
type obsBody struct {
	Now          string              `json:"now"`
	Phases       []obs.PhaseStat     `json:"phases"`
	RecentEvents []obs.RecordedEvent `json:"recent_events"`
}

func (o *Orchestrator) handleObs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, "GET")
		return
	}
	writeJSON(w, http.StatusOK, obsBody{
		Now:          o.Now().String(),
		Phases:       o.PhaseReport(),
		RecentEvents: o.RecentEvents(),
	})
}
