package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
)

// FaultStatus is the orchestrator's live fault-injection telemetry
// (served at GET /api/v1/faults).
type FaultStatus struct {
	// Pending counts scheduled fault events not yet due.
	Pending int `json:"pending"`
	// Applied counts fault events consumed by ticks.
	Applied int `json:"applied"`
	// Evictions counts deployments forced off crashed servers (they are
	// re-submitted to the placement queue automatically).
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
		if err := o.checkFaultTarget(f); err != nil {
			return err
		}
	}
	for _, f := range expanded {
		o.faultq.Push(o.now.Add(f.At), f)
	}
	return nil
}

// InjectFault schedules one fault (plus its timed revert, if any)
// relative to the current clock.
func (o *Orchestrator) InjectFault(f events.Fault) error {
	return o.InjectScript(&events.FaultScript{Faults: []events.Fault{f}})
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
	for id := range o.downServers {
		st.DownServers = append(st.DownServers, id)
	}
	sort.Strings(st.DownServers)
	return st
}

// consumeFaults (locked) applies every fault event due at or before the
// current clock, in (due instant, injection order), and returns the
// names of deployments evicted by them. The flight recorder numbers them
// from 1 in the order they are applied.
func (o *Orchestrator) consumeFaults() ([]string, error) {
	var evicted []string
	o.evictedNow = o.evictedNow[:0]
	for sf, seq, ok := o.faultq.PopDue(o.now); ok; sf, seq, ok = o.faultq.PopDue(o.now) {
		t0 := time.Now() //detlint:wallclock telemetry: fault apply latency feeds the flight recorder, never simulation state
		err := o.applyFault(sf.Fault, o.now)
		//detlint:wallclock telemetry: fault apply latency feeds the flight recorder, never simulation state
		o.recorder.Record(string(sf.Fault.Kind), sf.At, uint64(seq)+1, int64(time.Since(t0)))
		if err != nil {
			return evicted, err
		}
		o.faultsApplied++
		o.lastFault, o.lastFaultKind = o.now, string(sf.Fault.Kind)
		evicted = append(evicted, o.evictedNow...)
		o.evictedNow = o.evictedNow[:0]
	}
	return evicted, nil
}

// checkFaultTarget (locked) rejects faults no cluster entity can match.
func (o *Orchestrator) checkFaultTarget(f events.Fault) error {
	siteOK, zoneOK := f.Site == "", f.Zone == ""
	for _, dc := range o.cluster.DataCenters() {
		if dc.City == f.Site {
			siteOK = true
		}
		if dc.ZoneID == f.Zone {
			zoneOK = true
		}
	}
	if !siteOK {
		return fmt.Errorf("orchestrator: fault %s targets unknown site %q", f.Kind, f.Site)
	}
	if !zoneOK {
		return fmt.Errorf("orchestrator: fault %s targets unknown zone %q", f.Kind, f.Zone)
	}
	if f.Kind == events.FaultScaleOut {
		if f.Device == "" {
			return fmt.Errorf("orchestrator: scale-out fault needs device=")
		}
		if _, err := energy.DeviceByName(f.Device); err != nil {
			return fmt.Errorf("orchestrator: scale-out fault: %w", err)
		}
	}
	return nil
}

// matchServers (locked) returns the targeted servers with their DCs.
func (o *Orchestrator) matchServers(f events.Fault) (srvs []*cluster.Server, dcs []*cluster.DataCenter) {
	for _, dc := range o.cluster.DataCenters() {
		if f.Site != "" && dc.City != f.Site {
			continue
		}
		if f.Zone != "" && dc.ZoneID != f.Zone {
			continue
		}
		for _, srv := range dc.Servers() {
			if f.Device != "" && srv.Device.Name != f.Device {
				continue
			}
			srvs = append(srvs, srv)
			dcs = append(dcs, dc)
		}
	}
	return srvs, dcs
}

// applyFault (locked) mutates the cluster for one due fault event.
// Deployments on crashed servers are released and re-submitted to the
// placement queue (their names accumulate in evictedNow for the eviction
// handler); capacity and forecast skews are applied as placement-view
// overlays in syncWorkspace.
func (o *Orchestrator) applyFault(f events.Fault, now time.Time) error {
	switch f.Kind {
	case events.FaultCrash:
		for _, srv := range o.firstMatch(f) {
			if o.downServers[srv.ID] {
				continue
			}
			if err := o.evictServer(srv); err != nil {
				return err
			}
			if o.downServers == nil {
				o.downServers = map[string]bool{}
			}
			o.downServers[srv.ID] = true
			if err := srv.SetState(cluster.PoweredOff); err != nil {
				return err
			}
		}
	case events.FaultRecover:
		for _, srv := range o.firstMatch(f) {
			delete(o.downServers, srv.ID)
		}
	case events.FaultDegrade:
		for _, srv := range o.firstMatch(f) {
			if o.degraded == nil {
				o.degraded = map[string]float64{}
			}
			if f.Factor == 1 {
				delete(o.degraded, srv.ID)
				continue
			}
			o.degraded[srv.ID] = f.Factor
			if err := o.evictOverflow(srv, f.Factor); err != nil {
				return err
			}
		}
	case events.FaultForecastError:
		if o.fcSkew == nil {
			o.fcSkew = map[string]float64{}
		}
		if f.Factor == 1 {
			delete(o.fcSkew, f.Zone)
		} else {
			o.fcSkew[f.Zone] = f.Factor
		}
		// Invalidate the per-clock forecast memo so the skew is visible to
		// a batch placed later this same tick.
		o.fcAt = time.Time{}
	case events.FaultScaleOut:
		return o.scaleOut(f)
	default:
		return fmt.Errorf("orchestrator: unknown fault kind %q", f.Kind)
	}
	return nil
}

// firstMatch is matchServers without the DC column.
func (o *Orchestrator) firstMatch(f events.Fault) []*cluster.Server {
	srvs, _ := o.matchServers(f)
	return srvs
}

// evictServer (locked) evicts every deployment on a crashing server.
func (o *Orchestrator) evictServer(srv *cluster.Server) error {
	names := srv.Apps()
	sort.Strings(names) // map-ordered; sort for deterministic re-submission
	for _, name := range names {
		if err := o.evict(srv, name); err != nil {
			return err
		}
	}
	return nil
}

// evictOverflow (locked) evicts deployments from a degraded server until
// its usage fits the scaled capacity, matching the simulator's semantics
// (events.FaultDegrade: "applications that no longer fit are evicted").
// Names are released in descending order so the deterministic survivors
// are the lexicographically-first deployments.
func (o *Orchestrator) evictOverflow(srv *cluster.Server, factor float64) error {
	scaled := srv.Capacity.Scale(factor)
	names := srv.Apps()
	sort.Strings(names)
	for i := len(names) - 1; i >= 0 && !srv.Used().Fits(scaled); i-- {
		if err := o.evict(srv, names[i]); err != nil {
			return err
		}
	}
	return nil
}

// evict (locked) releases one deployment from a faulted server and
// re-submits its recipe to the pending queue, forcing it back through the
// placement path. The name stays known, so its request stats stay too;
// they go only if the re-placement rejects it (PlaceBatch).
func (o *Orchestrator) evict(srv *cluster.Server, name string) error {
	dep := o.deployments[name]
	if dep == nil {
		return fmt.Errorf("orchestrator: faulted server %s hosts unknown app %q", srv.ID, name)
	}
	if err := o.release(name, srv); err != nil {
		return err
	}
	o.pending = append(o.pending, dep.Recipe)
	o.faultEvictions++
	o.evictedNow = append(o.evictedNow, name)
	return nil
}

// scaleOut (locked) adds Count powered-off servers of the fault's device
// at the targeted site; the next placement batch may power them on. The
// workspace is rebuilt on its next sync (server count changed).
func (o *Orchestrator) scaleOut(f events.Fault) error {
	var target *cluster.DataCenter
	for _, dc := range o.cluster.DataCenters() {
		if dc.City == f.Site {
			target = dc
			break
		}
	}
	if target == nil {
		return fmt.Errorf("orchestrator: scale-out targets unknown site %q", f.Site)
	}
	dev, err := energy.DeviceByName(f.Device)
	if err != nil {
		return err
	}
	count := f.Count
	if count <= 0 {
		count = 1
	}
	for k := 0; k < count; k++ {
		id := fmt.Sprintf("srv-%s-flash-%d", target.City, o.flashSeq)
		o.flashSeq++
		capVec := cluster.NewResources(f.CapacityMilli, 65536, float64(dev.MemMB), 1000)
		srv := cluster.NewServer(id, target.ID, dev, capVec)
		if err := target.AddServer(srv); err != nil {
			return err
		}
		// Recorded so SaveState can re-create runtime-added servers.
		o.flashServers = append(o.flashServers, FlashServerState{
			ID: id, DCID: target.ID, Device: dev.Name, Capacity: capVec,
		})
	}
	return nil
}
