package sim

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/placement"
)

// FaultStats aggregates one run's world-dynamics telemetry. It is only
// populated (Result.Faults non-nil) when the run has a fault script.
type FaultStats struct {
	// Events counts fault events applied (reverts included).
	Events int
	// ServerCrashes and ServerRecoveries count server-level transitions
	// (a zone outage crashes every server in the zone).
	ServerCrashes, ServerRecoveries int
	// ScaleOuts counts servers added by flash fleet scale-outs.
	ScaleOuts int
	// Evictions counts live applications forced off their server by a
	// crash or capacity degradation.
	Evictions int
	// Replaced counts evicted applications successfully re-placed;
	// Lost counts those whose lifetime ran out before a feasible server
	// appeared, or that were still waiting when the run ended — so
	// Evictions == Replaced + Lost at the end of every run.
	Replaced, Lost int
	// DowntimeEpochs sums the epochs evicted applications spent waiting
	// for re-placement (0 when re-placed within the eviction epoch).
	DowntimeEpochs int
	// OutageEpochs counts epochs with at least one crashed server.
	OutageEpochs int
	// ViolationsDuringOutage and DroppedDuringOutage count traffic-mode
	// requests served outside the SLO (or not at all) during outage
	// epochs — the service-quality cost of the faults.
	ViolationsDuringOutage, DroppedDuringOutage int64
}

// initFaults validates the script's targets against this run's region and
// queues the expanded faults (reverts included), which the faults phase
// drains at the top of each epoch.
func (e *Engine) initFaults() error {
	e.fcErr = map[string]float64{}
	e.res.Faults = &FaultStats{}
	for _, f := range e.cfg.Faults.Expand() {
		if err := e.checkFaultTarget(f); err != nil {
			return err
		}
		e.faultq.Push(e.start.Add(f.At), f)
	}
	return nil
}

// checkFaultTarget rejects faults that could never match this run's
// world, so a typo in a script fails at NewEngine rather than silently
// doing nothing mid-run.
func (e *Engine) checkFaultTarget(f events.Fault) error {
	if f.Site != "" {
		if _, ok := e.siteIdxByCity[f.Site]; !ok {
			return fmt.Errorf("sim: fault %s targets unknown site %q (not in region %v)", f.Kind, f.Site, e.cfg.Region)
		}
	}
	if f.Zone != "" {
		found := false
		for _, s := range e.sites {
			if s.ZoneID == f.Zone {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: fault %s targets zone %q with no site in region %v", f.Kind, f.Zone, e.cfg.Region)
		}
	}
	if f.Kind == events.FaultScaleOut {
		dev := f.Device
		if dev == "" {
			dev = e.cfg.Devices[0]
		}
		if _, err := energy.DeviceByName(dev); err != nil {
			return fmt.Errorf("sim: scale-out fault: %w", err)
		}
	}
	return nil
}

// matchServers returns the indices of the servers a fault targets, in
// ascending (deterministic) order.
func (e *Engine) matchServers(f events.Fault) []int {
	idx := make([]int, 0, len(e.servers))
	for j := range e.servers {
		srv := &e.servers[j]
		site := e.sites[srv.site]
		if f.Site != "" && site.City != f.Site {
			continue
		}
		if f.Zone != "" && site.ZoneID != f.Zone {
			continue
		}
		if f.Device != "" && srv.device.Name != f.Device {
			continue
		}
		idx = append(idx, j)
	}
	return idx
}

// applyFault mutates the world for one due fault event. All mutations
// flow to the placement layer through the workspace's existing entry
// points (SetServerState/AddServers/UpdateIntensity) on the next solve's
// sync; evicted applications are queued back through the placement path
// and an eviction forces a redeploy pass this epoch.
func (e *Engine) applyFault(f events.Fault, now time.Time) error {
	fs := e.res.Faults
	fs.Events++
	epoch := e.epoch
	switch f.Kind {
	case events.FaultCrash:
		for _, j := range e.matchServers(f) {
			srv := &e.servers[j]
			if srv.down {
				continue
			}
			srv.down = true
			srv.on = false
			e.downCount++
			fs.ServerCrashes++
			e.evictServer(j, epoch)
		}
	case events.FaultRecover:
		for _, j := range e.matchServers(f) {
			srv := &e.servers[j]
			if !srv.down {
				continue
			}
			srv.down = false
			srv.on = e.cfg.ServersAlwaysOn
			e.downCount--
			fs.ServerRecoveries++
		}
	case events.FaultDegrade:
		for _, j := range e.matchServers(f) {
			srv := &e.servers[j]
			srv.cap = srv.baseCap.Scale(f.Factor)
			e.evictOverflow(j, epoch)
		}
	case events.FaultForecastError:
		if f.Factor == 1 {
			delete(e.fcErr, f.Zone)
		} else {
			e.fcErr[f.Zone] = f.Factor
		}
	case events.FaultScaleOut:
		return e.scaleOut(f)
	default:
		return fmt.Errorf("sim: unknown fault kind %q", f.Kind)
	}
	return nil
}

// evictServer forces every live application off server j.
func (e *Engine) evictServer(j, epoch int) {
	keep := e.live[:0]
	srv := &e.servers[j]
	for i := range e.live {
		a := e.live[i]
		if a.srv != j {
			keep = append(keep, a)
			continue
		}
		srv.used = srv.used.Sub(a.demand)
		e.queueEvicted(&a, epoch)
	}
	e.live = keep
}

// evictOverflow evicts the newest applications on server j until its
// usage fits the (possibly degraded) capacity. Newest-first is the
// deterministic tie-break: the longest-running apps keep their placement.
func (e *Engine) evictOverflow(j, epoch int) {
	srv := &e.servers[j]
	if srv.used.Fits(srv.cap) {
		return
	}
	for i := len(e.live) - 1; i >= 0 && !srv.used.Fits(srv.cap); i-- {
		a := e.live[i]
		if a.srv != j {
			continue
		}
		srv.used = srv.used.Sub(a.demand)
		e.queueEvicted(&a, epoch)
		e.live = append(e.live[:i], e.live[i+1:]...)
	}
	if !e.cfg.ServersAlwaysOn && srv.used.Dominant(srv.cap) <= 0 {
		srv.on = false
	}
}

// queueEvicted returns an evicted application to the placement backlog,
// keeping its departure epoch, and forces a redeploy pass this epoch so
// surviving capacity rebalances around the loss.
func (e *Engine) queueEvicted(a *liveApp, epoch int) {
	e.res.Faults.Evictions++
	e.forceRedeploy = true
	e.pending = append(e.pending, pendingApp{
		app: placement.App{
			ID:         e.queueID(len(e.pending)),
			Model:      a.model,
			Source:     e.sites[a.srcSite].City,
			SLOms:      e.cfg.RTTLimitMs,
			RatePerSec: e.cfg.RatePerSec,
		},
		src:       a.srcSite,
		expires:   a.expires,
		evictedAt: epoch,
	})
}

// scaleOut adds a flash fleet at the fault's site: Count new servers of
// the fault's device with CapacityMilli compute each, registered with the
// engine and the placement workspace (AddServers keeps existing indices
// and shortlists valid).
func (e *Engine) scaleOut(f events.Fault) error {
	site := e.siteIdxByCity[f.Site]
	devName := f.Device
	if devName == "" {
		devName = e.cfg.Devices[0]
	}
	dev, err := energy.DeviceByName(devName)
	if err != nil {
		return err
	}
	count := f.Count
	if count <= 0 {
		count = 1
	}
	ratio := f.CapacityMilli / e.cfg.CapacityMilliPerSite
	capVec := cluster.NewResources(f.CapacityMilli,
		float64(dev.MemMB)*ratio*4, float64(dev.MemMB)*ratio, 1e9)
	for k := 0; k < count; k++ {
		j := len(e.servers)
		e.servers = append(e.servers, siteServer{
			site:    site,
			pair:    e.pool.pair(site, dev.Name),
			device:  dev,
			baseCap: capVec,
			cap:     capVec,
			on:      e.cfg.ServersAlwaysOn,
		})
		if err := e.ws.AddServers(e.wsServer(j)); err != nil {
			return err
		}
		e.res.Faults.ScaleOuts++
	}
	return nil
}
