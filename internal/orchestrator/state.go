package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/router"
)

// State is the orchestrator's full serializable dynamic state: the
// clock, deployments with their exact resource allocations, the pending
// queue, telemetry accumulators, the live fault overlays with the
// not-yet-due fault events, and flash servers added by scale-out faults.
// It is plain data, written through the internal/checkpoint envelope by
// the /api/v1/state endpoints; LoadState rebuilds an equivalent
// orchestrator over a cluster constructed the same way (same testbed
// region and seed).
type State struct {
	Now time.Time `json:"now"`

	Deployments []DeploymentState `json:"deployments,omitempty"`
	Pending     []Recipe          `json:"pending,omitempty"`

	// FlashServers are servers added at runtime by scale-out faults,
	// re-created on restore before allocations are replayed.
	FlashServers []FlashServerState `json:"flash_servers,omitempty"`
	// Servers carries each server's power state and energy meter, keyed
	// by server ID, sorted for deterministic encoding.
	Servers []ServerPowerState `json:"servers"`

	CarbonTotalG  float64                         `json:"carbon_total_g"`
	CarbonByApp   map[string]metrics.SummaryState `json:"carbon_by_app,omitempty"`
	EnergyMeter   energy.MeterState               `json:"energy_meter"`
	DeployLatency metrics.SummaryState            `json:"deploy_latency"`

	OverloadTicks int64              `json:"overload_ticks,omitempty"`
	LastOverload  time.Time          `json:"last_overload,omitempty"`
	Traffic       *router.StatsState `json:"traffic,omitempty"`

	// FaultQueue lists the pending faults in firing order. A state
	// written in injection order instead loads to the same firing order:
	// (due instant, position in the list).
	FaultQueue     []events.ScheduledFault `json:"fault_queue,omitempty"`
	DownServers    []string                `json:"down_servers,omitempty"`
	Degraded       map[string]float64      `json:"degraded,omitempty"`
	FcSkew         map[string]float64      `json:"fc_skew,omitempty"`
	FaultsApplied  int                     `json:"faults_applied,omitempty"`
	FaultEvictions int                     `json:"fault_evictions,omitempty"`
	LastFault      time.Time               `json:"last_fault,omitempty"`
	LastFaultKind  string                  `json:"last_fault_kind,omitempty"`
	FlashSeq       int                     `json:"flash_seq,omitempty"`

	LastSolve placement.SolveStats `json:"last_solve"`
	Batches   int                  `json:"batches"`
	// BoundBatches and BnBBatches are absent from states written before
	// the exact solver's certificate existed; they load as zero.
	BoundBatches int `json:"bound_batches,omitempty"`
	BnBBatches   int `json:"bnb_batches,omitempty"`
}

// DeploymentState is one deployment plus the exact resource vector it
// holds on its server, so a restore re-allocates identically.
type DeploymentState struct {
	Deployment
	Demand cluster.Resources `json:"demand"`
}

// FlashServerState re-creates a scale-out server on restore.
type FlashServerState struct {
	ID       string            `json:"id"`
	DCID     string            `json:"dc_id"`
	Device   string            `json:"device"`
	Capacity cluster.Resources `json:"capacity"`
}

// ServerPowerState is one server's power state and meter.
type ServerPowerState struct {
	ID        string            `json:"id"`
	PoweredOn bool              `json:"powered_on"`
	Meter     energy.MeterState `json:"meter"`
}

// SaveState captures the orchestrator's dynamic state. It is safe to
// call while the service runs (it takes the orchestrator lock). A
// deployment whose server or allocation cannot be resolved is an
// internal-consistency failure and errors out rather than encoding a
// silently-wrong (zero) allocation into the checkpoint.
func (o *Orchestrator) SaveState() (State, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := State{
		Now:            o.now,
		Pending:        append([]Recipe(nil), o.pending...),
		CarbonTotalG:   o.carbonTotal,
		CarbonByApp:    o.carbonByApp.State(),
		EnergyMeter:    o.energyMeter.State(),
		DeployLatency:  o.DeployLatency.State(),
		OverloadTicks:  o.overloadTicks,
		LastOverload:   o.lastOverload,
		FaultQueue:     o.faultq.Pending(),
		FaultsApplied:  o.faultsApplied,
		FaultEvictions: o.faultEvictions,
		LastFault:      o.lastFault,
		LastFaultKind:  o.lastFaultKind,
		FlashSeq:       o.flashSeq,
		FlashServers:   append([]FlashServerState(nil), o.flashServers...),
		LastSolve:      o.lastSolve,
		Batches:        o.batches,
		BoundBatches:   o.boundBatches,
		BnBBatches:     o.bnbBatches,
	}
	for i := range o.replicas { // name-sorted
		name := o.replicas[i].ID
		dep := o.deployments[name]
		srv, _, err := o.cluster.FindServer(dep.ServerID)
		if err != nil {
			return State{}, fmt.Errorf("orchestrator: saving state: deployment %s: %w", name, err)
		}
		demand, ok := srv.Allocation(name)
		if !ok {
			return State{}, fmt.Errorf("orchestrator: saving state: deployment %s has no allocation on %s", name, dep.ServerID)
		}
		st.Deployments = append(st.Deployments, DeploymentState{Deployment: *dep, Demand: demand})
	}
	for _, srvState := range o.cluster.Snapshot().Servers {
		srv, _, err := o.cluster.FindServer(srvState.ServerID)
		if err != nil {
			return State{}, fmt.Errorf("orchestrator: saving state: %w", err)
		}
		st.Servers = append(st.Servers, ServerPowerState{
			ID:        srvState.ServerID,
			PoweredOn: srvState.State == cluster.PoweredOn,
			Meter:     srv.Meter().State(),
		})
	}
	for id := range o.downServers {
		st.DownServers = append(st.DownServers, id)
	}
	sort.Strings(st.DownServers)
	if len(o.degraded) > 0 {
		st.Degraded = make(map[string]float64, len(o.degraded))
		for k, v := range o.degraded {
			st.Degraded[k] = v
		}
	}
	if len(o.fcSkew) > 0 {
		st.FcSkew = make(map[string]float64, len(o.fcSkew))
		for k, v := range o.fcSkew {
			st.FcSkew[k] = v
		}
	}
	if o.traffic != nil {
		ts := o.traffic.router.Stats().State()
		st.Traffic = &ts
	}
	return st, nil
}

// LoadState restores a saved state into this orchestrator. The receiver
// must be freshly constructed over an equivalently-built cluster (same
// region and datasets): flash servers are re-created, power states and
// meters restored, and every deployment re-allocated with its exact
// resource vector. The forecast memo and the placement workspace are
// invalidated — a restored orchestrator must never serve a stale
// pre-snapshot forecast view — and are rebuilt lazily on the next batch.
func (o *Orchestrator) LoadState(st State) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.deployments) > 0 || len(o.pending) > 0 {
		return fmt.Errorf("orchestrator: LoadState needs a fresh orchestrator (have %d deployments, %d pending)",
			len(o.deployments), len(o.pending))
	}
	if st.Traffic != nil && o.traffic == nil {
		return fmt.Errorf("orchestrator: state carries traffic telemetry but no traffic is attached (AttachTraffic first)")
	}
	if err := o.validateState(&st); err != nil {
		return err
	}

	// Flash servers first, so power states and allocations can land on
	// them.
	for _, fs := range st.FlashServers {
		dc := o.cluster.DataCenter(fs.DCID)
		dev, err := energy.DeviceByName(fs.Device)
		if err != nil {
			return fmt.Errorf("orchestrator: flash server %s: %w", fs.ID, err)
		}
		if err := dc.AddServer(cluster.NewServer(fs.ID, dc.ID, dev, fs.Capacity)); err != nil {
			return err
		}
	}

	// Power on everything recorded on, then replay allocations, then
	// power the rest down (an off server never hosts allocations, so the
	// ordering satisfies the cluster's no-disruption rule).
	for _, sp := range st.Servers {
		srv, _, err := o.cluster.FindServer(sp.ID)
		if err != nil {
			return fmt.Errorf("orchestrator: restoring power states: %w", err)
		}
		if sp.PoweredOn {
			if err := srv.SetState(cluster.PoweredOn); err != nil {
				return err
			}
		}
		srv.Meter().Restore(sp.Meter)
	}
	o.deployments = make(map[string]*Deployment, len(st.Deployments))
	for _, ds := range st.Deployments {
		srv, dc, err := o.cluster.FindServer(ds.ServerID)
		if err != nil {
			return fmt.Errorf("orchestrator: restoring deployment %s: %w", ds.Recipe.Name, err)
		}
		dep := ds.Deployment
		rep, err := o.newReplica(&dep, srv, dc)
		if err != nil {
			return fmt.Errorf("orchestrator: restoring deployment %s: %w", ds.Recipe.Name, err)
		}
		if err := srv.Allocate(ds.Recipe.Name, ds.Demand); err != nil {
			return fmt.Errorf("orchestrator: restoring deployment %s: %w", ds.Recipe.Name, err)
		}
		o.admit(&dep, rep)
	}
	for _, sp := range st.Servers {
		if sp.PoweredOn {
			continue
		}
		srv, _, err := o.cluster.FindServer(sp.ID)
		if err != nil {
			return err
		}
		if err := srv.SetState(cluster.PoweredOff); err != nil {
			return fmt.Errorf("orchestrator: powering down %s: %w", sp.ID, err)
		}
	}

	o.now = st.Now
	o.pending = append([]Recipe(nil), st.Pending...)
	o.carbonTotal = st.CarbonTotalG
	o.carbonByApp = metrics.GroupedFromState(st.CarbonByApp)
	o.energyMeter.Restore(st.EnergyMeter)
	o.DeployLatency = metrics.SummaryFromState(st.DeployLatency)
	o.overloadTicks = st.OverloadTicks
	o.lastOverload = st.LastOverload
	o.faultq = events.FaultQueue{}
	for _, sf := range st.FaultQueue {
		o.faultq.Push(sf.At, sf.Fault)
	}
	o.faultsApplied = st.FaultsApplied
	o.faultEvictions = st.FaultEvictions
	o.lastFault, o.lastFaultKind = st.LastFault, st.LastFaultKind
	o.flashSeq = st.FlashSeq
	o.flashServers = append([]FlashServerState(nil), st.FlashServers...)
	o.lastSolve, o.batches = st.LastSolve, st.Batches
	o.boundBatches, o.bnbBatches = st.BoundBatches, st.BnBBatches

	o.downServers = nil
	if len(st.DownServers) > 0 {
		o.downServers = make(map[string]bool, len(st.DownServers))
		for _, id := range st.DownServers {
			o.downServers[id] = true
		}
	}
	o.degraded = nil
	if len(st.Degraded) > 0 {
		o.degraded = make(map[string]float64, len(st.Degraded))
		for k, v := range st.Degraded {
			o.degraded[k] = v
		}
	}
	o.fcSkew = nil
	if len(st.FcSkew) > 0 {
		o.fcSkew = make(map[string]float64, len(st.FcSkew))
		for k, v := range st.FcSkew {
			o.fcSkew[k] = v
		}
	}
	if st.Traffic != nil {
		rt := o.traffic.router
		if err := rt.RestoreStats(*st.Traffic); err != nil {
			return err
		}
		// A state written before per-deployment rows were retired with
		// their deployment still carries every name ever routed; keep the
		// rows of names that are deployed or queued.
		ids := rt.Stats().ByReplica.Labels()
		for id := range rt.Stats().Replicas {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, live := o.deployments[id]; !live && !o.isPending(id) {
				rt.Retire(id)
			}
		}
	}

	// A restored orchestrator must not serve any pre-snapshot view: drop
	// the forecast memo and force the workspace to rebuild on the next
	// batch so the restored overlays (fcSkew, degraded, downServers) are
	// what placement sees.
	o.invalidateForecasts()
	o.ws = nil
	return nil
}

// validateState (locked) checks a state against this orchestrator's
// cluster before anything is mutated, so LoadState is all-or-nothing on
// the failures a foreign or mismatched checkpoint can cause: a state
// rejected here leaves the orchestrator exactly as it was, and a retry
// with a corrected checkpoint still sees a fresh orchestrator.
func (o *Orchestrator) validateState(st *State) error {
	type srvInfo struct {
		capacity cluster.Resources
		device   string
		on       bool
	}
	servers := map[string]*srvInfo{}
	for _, dc := range o.cluster.DataCenters() {
		for _, srv := range dc.Servers() {
			servers[srv.ID] = &srvInfo{capacity: srv.Capacity, device: srv.Device.Name}
		}
	}
	for _, fs := range st.FlashServers {
		if o.cluster.DataCenter(fs.DCID) == nil {
			return fmt.Errorf("orchestrator: flash server %s references unknown DC %q", fs.ID, fs.DCID)
		}
		if _, err := energy.DeviceByName(fs.Device); err != nil {
			return fmt.Errorf("orchestrator: flash server %s: %w", fs.ID, err)
		}
		if _, dup := servers[fs.ID]; dup {
			return fmt.Errorf("orchestrator: flash server %s already exists in the cluster (state restored twice?)", fs.ID)
		}
		servers[fs.ID] = &srvInfo{capacity: fs.Capacity, device: fs.Device}
	}
	for _, sp := range st.Servers {
		info := servers[sp.ID]
		if info == nil {
			return fmt.Errorf("orchestrator: state references unknown server %q", sp.ID)
		}
		info.on = sp.PoweredOn
	}
	used := map[string]cluster.Resources{}
	names := map[string]bool{}
	for _, ds := range st.Deployments {
		if names[ds.Recipe.Name] {
			return fmt.Errorf("orchestrator: deployment %s appears twice", ds.Recipe.Name)
		}
		names[ds.Recipe.Name] = true
		info := servers[ds.ServerID]
		if info == nil {
			return fmt.Errorf("orchestrator: deployment %s references unknown server %q", ds.Recipe.Name, ds.ServerID)
		}
		if !info.on {
			return fmt.Errorf("orchestrator: deployment %s sits on powered-off server %s", ds.Recipe.Name, ds.ServerID)
		}
		// The replica table needs the pair's profile (newReplica).
		if _, err := energy.ProfileFor(ds.Recipe.Model, info.device); err != nil {
			return fmt.Errorf("orchestrator: deployment %s on %s: %w", ds.Recipe.Name, ds.ServerID, err)
		}
		total := used[ds.ServerID].Add(ds.Demand)
		if !total.Fits(info.capacity) {
			return fmt.Errorf("orchestrator: deployments on %s exceed its capacity (%v over %v at %s)",
				ds.ServerID, total, info.capacity, ds.Recipe.Name)
		}
		used[ds.ServerID] = total
	}
	return nil
}

// invalidateForecasts (locked) drops the per-clock forecast memo so the
// next solve recomputes every zone against the current overlays.
func (o *Orchestrator) invalidateForecasts() {
	o.fcCache = nil
	o.fcAt = time.Time{}
}
