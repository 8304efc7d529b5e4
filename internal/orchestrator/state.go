package orchestrator

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
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
// queue, telemetry accumulators, the server table's fault fields with the
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
// call while the service runs (it takes the orchestrator lock). The
// server table is written as its JSON views: flash servers in creation
// order, power states and meters, crashed servers and degrade factors,
// each keyed by server ID.
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
		DownServers:    o.downIDs(),
		LastSolve:      o.lastSolve,
		Batches:        o.batches,
		BoundBatches:   o.boundBatches,
		BnBBatches:     o.bnbBatches,
	}
	for _, d := range o.live { // name-sorted
		st.Deployments = append(st.Deployments, DeploymentState{Deployment: d.Deployment, Demand: d.demand})
	}
	byID := slices.Clone(o.servers)
	slices.SortFunc(byID, func(a, b *server) int { return strings.Compare(a.id, b.id) })
	for _, srv := range byID {
		st.Servers = append(st.Servers, ServerPowerState{ID: srv.id, PoweredOn: srv.On, Meter: srv.meter.State()})
		if srv.Factor != 0 {
			if st.Degraded == nil {
				st.Degraded = map[string]float64{}
			}
			st.Degraded[srv.id] = srv.Factor
		}
	}
	flash := slices.DeleteFunc(byID, func(srv *server) bool { return srv.flash == 0 })
	slices.SortFunc(flash, func(a, b *server) int { return a.flash - b.flash })
	for _, srv := range flash {
		st.FlashServers = append(st.FlashServers, FlashServerState{
			ID: srv.id, DCID: srv.dc.ID, Device: srv.Device.Name, Capacity: srv.Base,
		})
	}
	if len(o.faults.Skew) > 0 {
		st.FcSkew = maps.Clone(o.faults.Skew)
	}
	if o.traffic != nil {
		ts := o.traffic.router.Stats().State()
		st.Traffic = &ts
	}
	return st, nil
}

// LoadState restores a saved state into this orchestrator. The receiver
// must be freshly constructed over an equivalently-built cluster (same
// region and datasets): its own flash servers are dropped and the state's
// re-created, the server rows' power states, meters and fault fields
// assigned, and every deployment re-admitted with its exact resource
// vector. The placement workspace is dropped and rebuilt on the next
// batch, which reads every forecast afresh under the restored skews.
//
// The rows are rebuilt on copies and published only once the whole state
// has passed, so LoadState is all-or-nothing on the failures a foreign or
// mismatched checkpoint can cause: a refused state leaves the
// orchestrator exactly as it was, and a retry with a corrected checkpoint
// still sees a fresh orchestrator.
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
	// Only the cluster's own rows are rebuilt: restore re-adds the
	// state's flash servers, and a fresh orchestrator may have scaled out
	// already.
	fresh := o.servers
	o.servers = make([]*server, 0, len(fresh))
	for _, s := range fresh {
		if s.flash != 0 {
			continue
		}
		cp := &server{Row: s.Row, id: s.id, dc: s.dc, apps: s.apps}
		cp.meter.Restore(s.meter.State())
		o.servers = append(o.servers, cp)
	}
	if err := o.restore(&st); err != nil {
		o.servers = fresh
		clear(o.deployments)
		o.replicas, o.live, o.appW = nil, nil, nil
		return err
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
	o.lastSolve, o.batches = st.LastSolve, st.Batches
	o.boundBatches, o.bnbBatches = st.BoundBatches, st.BnBBatches

	o.faults.Skew = nil
	if len(st.FcSkew) > 0 {
		o.faults.Skew = maps.Clone(st.FcSkew)
	}
	if st.Traffic != nil {
		// A state written before per-deployment rows were retired with
		// their deployment still carries every name ever routed; keep the
		// rows of names that are deployed or queued.
		rt := o.traffic.router
		ids := rt.Stats().ByReplica.Labels()
		for id := range rt.Stats().Replicas {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, live := o.deployments[id]; !live && o.queued(id) < 0 {
				rt.Retire(id)
			}
		}
	}

	// A restored orchestrator must not serve any pre-snapshot view: the
	// workspace rebuilds on the next batch from the restored rows.
	o.ws = nil
	return nil
}

// restore (locked) rebuilds st's rows on o's and admits st's deployments
// onto them, or refuses st. The rows take their power state, crash and
// degrade factor from st alone (a row it does not list is off); the
// checks rows cannot express come first (unknown IDs, recipes and rates,
// held demands, the backlog, the fault queue). admit then refuses a name
// listed twice, a powered-off row and a row the demand does not fit, and
// the shared row check the rest. The traffic stats restore last, all or
// nothing.
func (o *Orchestrator) restore(st *State) error {
	for k, fs := range st.FlashServers {
		dc := o.dcByID(fs.DCID)
		if dc == nil {
			return fmt.Errorf("orchestrator: flash server %s references unknown DC %q", fs.ID, fs.DCID)
		}
		dev, err := energy.DeviceByName(fs.Device)
		if err != nil {
			return fmt.Errorf("orchestrator: flash server %s: %w", fs.ID, err)
		}
		if err := o.addServer(newServer(fs.ID, dc, dev, fs.Capacity, false), k+1); err != nil {
			return err
		}
	}
	byID := make(map[string]*server, len(o.servers))
	for _, srv := range o.servers {
		byID[srv.id] = srv
		srv.Factor, srv.On, srv.Down = st.Degraded[srv.id], false, false
	}
	for _, sp := range st.Servers {
		srv := byID[sp.ID]
		if srv == nil {
			return fmt.Errorf("orchestrator: state references unknown server %q", sp.ID)
		}
		srv.On = sp.PoweredOn
		srv.meter.Restore(sp.Meter)
	}
	for _, id := range st.DownServers {
		if byID[id] == nil {
			return fmt.Errorf("orchestrator: state's faults reference unknown server %q", id)
		}
		byID[id].Down = true
	}
	// The state lists degraded rows only: a listed 0, a row's full
	// capacity, is a factor no fault sets.
	for _, id := range slices.Sorted(maps.Keys(st.Degraded)) {
		if byID[id] == nil || st.Degraded[id] == 0 {
			return fmt.Errorf("orchestrator: state degrades server %q by %g: unknown server, or a factor no fault sets", id, st.Degraded[id])
		}
	}
	names := map[string]bool{}
	for _, ds := range st.Deployments {
		if err := ds.Recipe.Validate(); err != nil {
			return err
		}
		names[ds.Recipe.Name] = true
		srv := byID[ds.ServerID]
		if srv == nil {
			return fmt.Errorf("orchestrator: deployment %s references unknown server %q", ds.Recipe.Name, ds.ServerID)
		}
		// The replica table needs the pair's profile (newReplica), and its
		// capacity is the recipe's rate: one no server of the type can
		// serve was never placed (routing it allocated without bound).
		prof, err := energy.ProfileFor(ds.Recipe.Model, srv.Device.Name)
		if err != nil {
			return fmt.Errorf("orchestrator: deployment %s on %s: %w", ds.Recipe.Name, ds.ServerID, err)
		}
		if _, _, ok := placement.Coefficients(prof, ds.Recipe.RatePerSec); !ok {
			return fmt.Errorf("orchestrator: deployment %s: %s cannot serve %g req/s of %s", ds.Recipe.Name, srv.Device.Name, ds.Recipe.RatePerSec, ds.Recipe.Model)
		}
		if !ds.Demand.NonNegative() {
			return fmt.Errorf("orchestrator: deployment %s holds a negative demand %v", ds.Recipe.Name, ds.Demand)
		}
	}
	// The backlog holds only what Submit accepted.
	for _, rec := range st.Pending {
		if err := rec.Validate(); err != nil {
			return err
		}
		if names[rec.Name] {
			return fmt.Errorf("orchestrator: pending %s is already deployed or pending", rec.Name)
		}
		names[rec.Name] = true
	}
	// The queue holds only what InjectScript accepted.
	for _, sf := range st.FaultQueue {
		if err := sf.Fault.Validate(); err != nil {
			return fmt.Errorf("orchestrator: queued fault: %w", err)
		}
		if err := o.faults.Check((*table)(o), sf.Fault); err != nil {
			return fmt.Errorf("orchestrator: queued fault: %w", err)
		}
	}

	for _, ds := range st.Deployments {
		d := &deployment{Deployment: ds.Deployment, srv: byID[ds.ServerID], demand: ds.Demand}
		if err := o.admit(d); err != nil {
			return fmt.Errorf("orchestrator: restoring deployment %s: %w", ds.Recipe.Name, err)
		}
	}
	if err := o.physical(st.FcSkew); err != nil {
		return fmt.Errorf("orchestrator: restored state is not physical: %w", err)
	}
	if st.Traffic != nil {
		return o.traffic.router.RestoreStats(*st.Traffic)
	}
	return nil
}

// dcByID returns a data center by ID, or nil.
func (o *Orchestrator) dcByID(id string) *cluster.DataCenter {
	for _, dc := range o.dcs {
		if dc.ID == id {
			return dc
		}
	}
	return nil
}
