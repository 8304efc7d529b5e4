package orchestrator

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/fleet"
)

// FaultStatus is the orchestrator's live fault-injection telemetry
// (served at GET /api/v1/faults).
type FaultStatus struct {
	// Pending counts scheduled fault events not yet due.
	Pending int `json:"pending"`
	// Applied counts fault events consumed by ticks.
	Applied int `json:"applied"`
	// Evictions counts deployments forced off crashed servers or off
	// servers degraded below their usage (they are re-submitted to the
	// placement queue automatically).
	Evictions int `json:"evictions"`
	// DownServers lists the currently crashed server IDs.
	DownServers []string `json:"down_servers,omitempty"`
	// LastFault is the clock instant of the last applied event.
	LastFault string `json:"last_fault,omitempty"`
	// LastFaultKind names the last applied event.
	LastFaultKind string `json:"last_fault_kind,omitempty"`
}

// InjectScript schedules a fault scenario against the orchestrator's
// clock: each fault's offset is relative to the current clock value, and
// timed reverts (crash for=, degrade for=, ...) are expanded
// automatically. Due events are consumed by Tick, in (due instant,
// injection order).
func (o *Orchestrator) InjectScript(s *events.FaultScript) error {
	if err := s.Validate(); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	expanded := s.Expand()
	for _, f := range expanded {
		if err := o.faults.Check((*table)(o), f); err != nil {
			return fmt.Errorf("orchestrator: %w", err)
		}
	}
	for _, f := range expanded {
		o.faultq.Push(o.now.Add(f.At), f)
	}
	return nil
}

// SetEvictionHandler registers fn, called after any Tick whose fault
// events evicted deployments. The evicted deployments are already back in
// the placement queue; fn runs outside the orchestrator lock, so it may
// call PlaceBatch to re-place them immediately.
func (o *Orchestrator) SetEvictionHandler(fn func(now time.Time, evicted []string)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.onEviction = fn
}

// FaultStatus reports the live fault-injection state.
func (o *Orchestrator) FaultStatus() FaultStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := FaultStatus{
		Pending:       o.faultq.Len(),
		Applied:       o.faultsApplied,
		Evictions:     o.faultEvictions,
		LastFaultKind: o.lastFaultKind,
	}
	if !o.lastFault.IsZero() {
		st.LastFault = o.lastFault.String()
	}
	st.DownServers = o.downIDs()
	return st
}

// downIDs (locked) lists the crashed servers' IDs, sorted.
func (o *Orchestrator) downIDs() []string {
	var ids []string
	for _, srv := range o.servers {
		if srv.Down {
			ids = append(ids, srv.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// consumeFaults (locked) applies every fault event due at or before the
// current clock, in (due instant, injection order), and returns the
// names of deployments evicted by them (scratch, valid until the next
// call). The flight recorder numbers them from 1 in the order they are
// applied.
func (o *Orchestrator) consumeFaults() ([]string, error) {
	o.evictedNow = o.evictedNow[:0]
	for sf, seq, ok := o.faultq.PopDue(o.now); ok; sf, seq, ok = o.faultq.PopDue(o.now) {
		t0 := time.Now() //detlint:wallclock telemetry: fault apply latency feeds the flight recorder, never simulation state
		_, err := o.faults.Apply((*table)(o), sf.Fault)
		//detlint:wallclock telemetry: fault apply latency feeds the flight recorder, never simulation state
		o.recorder.Record(string(sf.Fault.Kind), sf.At, uint64(seq)+1, int64(time.Since(t0)))
		if err != nil {
			return o.evictedNow, fmt.Errorf("orchestrator: %w", err)
		}
		o.faultsApplied++
		o.lastFault, o.lastFaultKind = o.now, string(sf.Fault.Kind)
	}
	return o.evictedNow, nil
}

// table is the orchestrator as the fault applicator's driver: its
// server table, and the name-sorted live set as the order deployments
// leave a row in. Its methods run under the orchestrator lock.
type table Orchestrator

func (t *table) Rows() int            { return len(t.servers) }
func (t *table) Row(j int) *fleet.Row { return &t.servers[j].Row }
func (t *table) ID(j int) string      { return t.servers[j].id }

func (t *table) Live() int           { return len(t.live) }
func (t *table) Hosts(j, i int) bool { return t.live[i].srv == t.servers[j] }

// physical (locked) is the shared row check of the server table
// (fleet.Physical), fed from one pass over the live set, under the
// forecast skews skew.
func (o *Orchestrator) physical(skew map[string]float64) error {
	row := make(map[*server]int, len(o.servers))
	for j, srv := range o.servers {
		row[srv] = j
	}
	load := make([]fleet.Load, len(o.servers))
	for _, d := range o.live {
		l := &load[row[d.srv]]
		l.Demand = l.Demand.Add(d.demand)
		l.Apps++
	}
	return fleet.Physical((*table)(o), load, skew)
}

// Evict releases each deployment and re-submits its recipe to the
// pending queue, forcing it back through the placement path. The name
// stays known, so its request stats stay too; they go only if the
// re-placement rejects it (PlaceBatch). Each release shifts the live
// positions after it down by one.
func (t *table) Evict(j int, apps []int) {
	o := (*Orchestrator)(t)
	for k, i := range apps {
		d := o.live[i-k]
		o.release(d)
		o.pending = append(o.pending, d.Recipe)
		o.faultEvictions++
		o.evictedNow = append(o.evictedNow, d.Recipe.Name)
	}
}

// Vacated refuses a crash of a row whose count still says it hosts a
// deployment.
func (t *table) Vacated(j int) error {
	if srv := t.servers[j]; srv.apps > 0 {
		return fmt.Errorf("server %s has %d deployments; cannot power off", srv.id, srv.apps)
	}
	return nil
}

// AddRow adds a flash server of dev at city's DC (Check has found one
// there), numbered after the flash servers before it; the next placement
// batch may power it on. The workspace is rebuilt on its next sync
// (server count changed).
func (t *table) AddRow(city string, dev energy.Device, capMilli float64, on bool) error {
	o := (*Orchestrator)(t)
	i := slices.IndexFunc(o.dcs, func(dc *cluster.DataCenter) bool { return dc.City == city })
	srv := newServer(fmt.Sprintf("srv-%s-flash-%d", city, o.flashSeq), o.dcs[i], dev,
		cluster.NewResources(capMilli, 65536, float64(dev.MemMB), 1000), on)
	o.flashSeq++
	return o.addServer(srv, o.flashSeq)
}

// addServer (locked) inserts a scale-out server's row, numbered flash,
// after its DC's rows, where the cluster's DC-then-registration walk would
// put it. Server IDs are unique across the table.
func (o *Orchestrator) addServer(srv *server, flash int) error {
	end := 0
	for _, d := range o.dcs {
		for end < len(o.servers) && o.servers[end].dc == d {
			end++
		}
		if d == srv.dc {
			break
		}
	}
	if slices.ContainsFunc(o.servers, func(s *server) bool { return s.id == srv.id }) {
		return fmt.Errorf("orchestrator: duplicate server %s", srv.id)
	}
	srv.flash = flash
	o.servers = slices.Insert(o.servers, end, srv)
	return nil
}
