package sim

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/fleet"
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

// initFaults validates the script's targets against this run's server
// table and queues the expanded faults (reverts included), which the
// faults phase drains at the top of each epoch.
func (e *Engine) initFaults() error {
	e.res.Faults = &FaultStats{}
	for _, f := range e.cfg.Faults.Expand() {
		if err := e.faults.Check((*engineRows)(e), f); err != nil {
			return fmt.Errorf("sim: %w (region %v)", err, e.cfg.Region)
		}
		e.faultq.Push(e.start.Add(f.At), f)
	}
	return nil
}

// engineRows is the engine as the fault applicator's driver: its server
// table, and e.live as the live order apps leave a row in.
type engineRows Engine

func (r *engineRows) Rows() int            { return len(r.servers) }
func (r *engineRows) Row(j int) *fleet.Row { return &r.servers[j].Row }
func (r *engineRows) ID(j int) string      { return "srv-" + strconv.Itoa(j) }
func (r *engineRows) Vacated(j int) error  { return nil }
func (r *engineRows) Live() int            { return r.live.len() }
func (r *engineRows) Hosts(j, i int) bool  { return r.live.items()[i].srv == j }

// Evict releases each app (the release rule powers its server off once
// empty) and returns it to the placement backlog, keeping its departure
// epoch, and forces a redeploy pass this epoch so surviving capacity
// rebalances around the loss.
func (r *engineRows) Evict(j int, apps []int) {
	e := (*Engine)(r)
	live := e.live.items()
	for _, i := range apps {
		a := &live[i]
		e.release(a)
		e.unpool(a, false)
		e.res.Faults.Evictions++
		e.forceRedeploy = true
		app := *e.appTemplate(a.mi, a.srcSite)
		app.ID = e.queueID(len(e.pending))
		e.pending = append(e.pending, pendingApp{
			app:       app,
			src:       a.srcSite,
			expires:   a.expires,
			evictedAt: e.epoch,
		})
		a.srv = -1
	}
	e.live.truncate(len(slices.DeleteFunc(live, func(a liveApp) bool { return a.srv < 0 })))
}

// AddRow adds a flash-fleet server at city: capMilli compute, memory in
// the per-site capacity's proportion, registered with the placement
// workspace (AddServers keeps existing indices and shortlists valid).
func (r *engineRows) AddRow(city string, dev energy.Device, capMilli float64, on bool) error {
	e := (*Engine)(r)
	ratio := capMilli / e.cfg.CapacityMilliPerSite
	e.servers = append(e.servers, e.newServer(e.siteIdxByCity[city], dev,
		cluster.NewResources(capMilli, float64(dev.MemMB)*ratio*4, float64(dev.MemMB)*ratio, 1e9), on))
	if err := e.ws.AddServers(fleet.Server(r, len(e.servers)-1)); err != nil {
		return err
	}
	e.res.Faults.ScaleOuts++
	return nil
}
