package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/placement"
	"repro/internal/router"
)

// API exposes the orchestrator over HTTP, mirroring the Sinfonia-style
// interface the prototype adds (§5.1):
//
//	POST   /api/v1/deployments        submit a recipe (queued for batch)
//	POST   /api/v1/place              run the placement batch now
//	GET    /api/v1/deployments        list deployments
//	GET    /api/v1/deployments/{name} one deployment
//	DELETE /api/v1/deployments/{name} undeploy
//	GET    /api/v1/metrics            carbon/energy counters
//	GET    /api/v1/traffic            request-level stats: lifetime totals + one row per live deployment
//	GET    /api/v1/placement          live solver stats from the workspace
//	POST   /api/v1/faults             inject a fault scenario (script or single fault)
//	GET    /api/v1/faults             live fault-injection status
//	GET    /api/v1/state              checkpoint: download the full orchestrator state
//	PUT    /api/v1/state              restore a checkpoint into a fresh orchestrator
//	GET    /api/v1/obs                tick-phase breakdown + recent fault events
//	GET    /metrics                   Prometheus text exposition (unified registry)
func (o *Orchestrator) API() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/deployments", o.handleDeployments)
	mux.HandleFunc("/api/v1/deployments/", o.handleDeployment)
	mux.HandleFunc("/api/v1/place", o.handlePlace)
	mux.HandleFunc("/api/v1/metrics", o.handleMetrics)
	mux.HandleFunc("/api/v1/traffic", o.handleTraffic)
	mux.HandleFunc("/api/v1/placement", o.handlePlacement)
	mux.HandleFunc("/api/v1/faults", o.handleFaults)
	mux.HandleFunc("/api/v1/state", o.handleState)
	mux.HandleFunc("/api/v1/obs", o.handleObs)
	mux.Handle("/metrics", o.registry.Handler())
	return mux
}

// writeJSON encodes v to a buffer first so an encoding failure can still
// be surfaced as a 500 with an error body — writing the status line
// before encoding (the previous behaviour) silently truncated the
// response on encoder errors.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		fmt.Fprintf(&buf, `{"error":%q}`, "encoding response: "+err.Error())
		buf.WriteByte('\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// methodNotAllowed rejects an unsupported method uniformly: 405, an
// Allow header listing what the endpoint supports, and a JSON error
// body.
func methodNotAllowed(w http.ResponseWriter, r *http.Request, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeJSON(w, http.StatusMethodNotAllowed, errorBody{fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, strings.Join(allow, ", "))})
}

type errorBody struct {
	Error string `json:"error"`
}

func (o *Orchestrator) handleDeployments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, o.Deployments())
	case http.MethodPost:
		rec, err := DecodeRecipe(r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		if err := o.Submit(*rec); err != nil {
			writeJSON(w, http.StatusConflict, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, rec)
	default:
		methodNotAllowed(w, r, "GET", "POST")
	}
}

func (o *Orchestrator) handleDeployment(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/deployments/")
	if name == "" {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		dep := o.Deployment(name)
		if dep == nil {
			writeJSON(w, http.StatusNotFound, errorBody{"no such deployment"})
			return
		}
		writeJSON(w, http.StatusOK, dep)
	case http.MethodDelete:
		if err := o.Undeploy(name); err != nil {
			writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		methodNotAllowed(w, r, "GET", "DELETE")
	}
}

// placeResponse reports a batch outcome.
type placeResponse struct {
	Placed   []*Deployment `json:"placed"`
	Rejected []string      `json:"rejected"`
}

func (o *Orchestrator) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, r, "POST")
		return
	}
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, placeResponse{Placed: placed, Rejected: rejected})
}

// metricsBody is the /metrics payload.
type metricsBody struct {
	CarbonTotalG    float64 `json:"carbon_total_g"`
	EnergyKWh       float64 `json:"energy_kwh"`
	Deployments     int     `json:"deployments"`
	MeanDeployMs    float64 `json:"mean_deploy_ms"`
	DeployBatches   int     `json:"deploy_batches"`
	OrchestratorNow string  `json:"now"`
}

func (o *Orchestrator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, "GET")
		return
	}
	// One locked read: the counters describe one instant, and counting the
	// deployments costs nothing per deployment.
	o.mu.Lock()
	body := metricsBody{
		CarbonTotalG:    o.carbonTotal,
		Deployments:     len(o.deployments),
		DeployBatches:   o.DeployLatency.N(),
		OrchestratorNow: o.now.String(),
	}
	if body.DeployBatches > 0 {
		body.MeanDeployMs = o.DeployLatency.Mean()
	}
	o.mu.Unlock()
	body.EnergyKWh = o.EnergyKWh()
	writeJSON(w, http.StatusOK, body)
}

// trafficBody is the /traffic payload: cluster-wide request-level totals
// over the service's lifetime, plus per-deployment SLO attainment, latency
// quantiles, and carbon attribution for the deployments that exist now
// (deployed, or evicted and awaiting re-placement) and have been routed a
// request. An undeployed name's row is gone; the totals keep its share.
type trafficBody struct {
	Now           string                   `json:"now"`
	OverloadTicks int64                    `json:"overload_ticks"`
	LastOverload  string                   `json:"last_overload,omitempty"`
	Totals        router.Snapshot          `json:"totals"`
	Deployments   []router.ReplicaSnapshot `json:"deployments"`
}

// placementBody is the /placement payload: the last batch's solver
// telemetry from the orchestrator's persistent workspace.
type placementBody struct {
	Now     string `json:"now"`
	Batches int    `json:"batches"`
	placement.SolveStats
}

func (o *Orchestrator) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, "GET")
		return
	}
	stats, batches, ok := o.PlacementStats()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"no placement batch solved yet"})
		return
	}
	writeJSON(w, http.StatusOK, placementBody{
		Now:        o.Now().String(),
		Batches:    batches,
		SolveStats: stats,
	})
}

// faultRequest is the POST /faults payload: either a whole scenario in
// the declarative script syntax, or one fault spelled out as fields
// (durations are Go duration strings, e.g. "30m", "24h"). Offsets are
// relative to the orchestrator's current clock.
type faultRequest struct {
	// Script is a multi-line fault scenario ("at 1h crash site=Miami").
	Script string `json:"script,omitempty"`
	// Single-fault fields, used when Script is empty.
	At       string  `json:"at,omitempty"`
	Kind     string  `json:"kind,omitempty"`
	Site     string  `json:"site,omitempty"`
	Device   string  `json:"device,omitempty"`
	Zone     string  `json:"zone,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	For      string  `json:"for,omitempty"`
	Capacity float64 `json:"capacity,omitempty"`
	Count    int     `json:"count,omitempty"`
}

// script converts the request into a validated fault script.
func (fr *faultRequest) script() (*events.FaultScript, error) {
	if fr.Script != "" {
		return events.ParseFaultScript(fr.Script)
	}
	f := events.Fault{
		Kind: events.FaultKind(fr.Kind), Site: fr.Site, Device: fr.Device,
		Zone: fr.Zone, Factor: fr.Factor, CapacityMilli: fr.Capacity, Count: fr.Count,
	}
	if fr.At != "" {
		d, err := time.ParseDuration(fr.At)
		if err != nil {
			return nil, fmt.Errorf("bad at %q: %v", fr.At, err)
		}
		f.At = d
	}
	if fr.For != "" {
		d, err := time.ParseDuration(fr.For)
		if err != nil {
			return nil, fmt.Errorf("bad for %q: %v", fr.For, err)
		}
		f.For = d
	}
	s := &events.FaultScript{Faults: []events.Fault{f}}
	return s, s.Validate()
}

// faultResponse acknowledges an injected scenario.
type faultResponse struct {
	Scheduled []string    `json:"scheduled"`
	Status    FaultStatus `json:"status"`
}

func (o *Orchestrator) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, o.FaultStatus())
	case http.MethodPost:
		var req faultRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		script, err := req.script()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		if err := o.InjectScript(script); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		resp := faultResponse{Status: o.FaultStatus()}
		for _, f := range script.Expand() {
			resp.Scheduled = append(resp.Scheduled, f.String())
		}
		writeJSON(w, http.StatusAccepted, resp)
	default:
		methodNotAllowed(w, r, "GET", "POST")
	}
}

func (o *Orchestrator) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, "GET")
		return
	}
	snap, overloads, last, ok := o.TrafficTelemetry()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"no traffic attached"})
		return
	}
	body := trafficBody{
		Now:           o.Now().String(),
		OverloadTicks: overloads,
		Totals:        snap,
		Deployments:   snap.Replicas,
	}
	body.Totals.Replicas = nil // per-deployment rows live at the top level
	if !last.IsZero() {
		body.LastOverload = last.String()
	}
	writeJSON(w, http.StatusOK, body)
}

// stateKind is the checkpoint envelope kind for orchestrator state.
const stateKind = "orchestrator"

// handleState serves the checkpoint endpoints: GET downloads the full
// orchestrator state as a versioned checkpoint envelope, PUT restores
// one into a freshly-started orchestrator (same testbed construction).
func (o *Orchestrator) handleState(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st, err := o.SaveState()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
			return
		}
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, stateKind, st); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes())
	case http.MethodPut:
		var st State
		if err := checkpoint.Decode(r.Body, stateKind, &st); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		if err := o.LoadState(st); err != nil {
			writeJSON(w, http.StatusConflict, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"restored": o.Now().String()})
	default:
		methodNotAllowed(w, r, "GET", "PUT")
	}
}
