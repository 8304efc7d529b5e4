package orchestrator

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// Orchestrator is the CarbonEdge control plane (Figure 6): it owns the
// emulated edge cluster, batches deployment requests, invokes the
// placement service, commits decisions (resource allocation + power
// transitions), and runs the telemetry loop that integrates energy and
// carbon.
//
// Time is explicit: the orchestrator advances via Tick(now, dt) so tests
// and the emulated testbed can replay a day in milliseconds.
type Orchestrator struct {
	mu sync.Mutex

	cluster *cluster.Cluster
	carbon  *carbon.Service   //detlint:ephemeral injected dependency, re-supplied on construction
	shaper  *latency.Shaper   //detlint:ephemeral injected dependency, re-supplied on construction
	placer  *placement.Placer //detlint:ephemeral injected dependency, re-supplied on construction
	horizon int               //detlint:ephemeral configuration, re-supplied on construction

	// ws is the long-lived placement workspace: built from the cluster
	// on the first batch, it keeps profile cells, RTT rows, and candidate
	// shortlists across batches. Before every solve the carbon clock
	// refreshes its intensities and free capacity and power state are
	// re-synced from the cluster (the allocation ground truth); a change
	// to the shaper's delays rebuilds it (syncRTT).
	ws        *placement.Workspace
	fcCache   map[string]float64 // zone -> mean forecast, valid at fcAt
	fcAt      time.Time
	lastSolve placement.SolveStats
	batches   int
	// boundBatches and bnbBatches split the exact-backend batches by what
	// closed them: the exact solver's certificate, or branch and bound.
	boundBatches int
	bnbBatches   int

	now         time.Time
	pending     []Recipe
	deployments map[string]*Deployment
	// replicas is the live set as the traffic router sees it: one row per
	// deployment, sorted by name (the router's tie-break order), kept in
	// step with deployments by the commit in PlaceBatch, release and
	// LoadState instead of being rebuilt every tick. appW, aligned with
	// it, is each deployment's dynamic draw for the telemetry loop: the
	// provisioned draw until traffic is attached, then what routeTraffic
	// derives from the requests the deployment served this tick.
	replicas []router.Replica
	appW     []float64
	// cities numbers the cities the router routes between (Replica.Loc,
	// traffic sources) and remembers the shaper generation its latencies
	// were memoized at.
	cities cityIndex

	// Telemetry.
	carbonByApp *metrics.Grouped
	carbonTotal float64 // grams CO2eq accumulated
	energyMeter energy.Meter

	// Request-level traffic (AttachTraffic): open-loop demand routed over
	// the deployments every tick.
	traffic       *trafficState
	overloadTicks int64
	lastOverload  time.Time
	onOverload    func(now time.Time, dropped int64) //detlint:ephemeral callback hook, re-registered by the embedding process

	// Live fault injection (InjectFault / POST /api/v1/faults): scheduled
	// world-dynamics events consumed by Tick. The queue holds the fault
	// data itself (not closures), so SaveState serializes the not-yet-due
	// events as they are. Crashed servers and degradation factors overlay
	// the placement view in syncWorkspace; forecast skews multiply the
	// per-zone forecast.
	faultq         events.FaultQueue
	downServers    map[string]bool
	degraded       map[string]float64 // server ID -> capacity factor
	fcSkew         map[string]float64 // zone -> forecast factor
	faultsApplied  int
	faultEvictions int
	lastFault      time.Time
	lastFaultKind  string
	evictedNow     []string //detlint:ephemeral per-tick scratch, cleared before every use
	flashSeq       int
	flashServers   []FlashServerState
	onEviction     func(now time.Time, evicted []string) //detlint:ephemeral callback hook, re-registered by the embedding process

	// DeployLatency measures time from batch start to commit.
	DeployLatency metrics.Summary

	// Observability (always on, built by initObs): the tick-phase
	// tracer, the Prometheus-style registry served at /metrics, and a
	// flight recorder of applied fault events.
	trace    *obs.Tracer         //detlint:ephemeral telemetry: phase tracer, not simulation state
	recorder *obs.FlightRecorder //detlint:ephemeral telemetry: flight recorder, not simulation state
	registry *obs.Registry       //detlint:ephemeral telemetry: metrics registry, not simulation state
}

// trafficState bundles the attached workload generator and its router.
// srcLoc[i] is the city index of the generator's source i.
type trafficState struct {
	gen    *traffic.Generator
	router *router.Router
	srcLoc []int
}

// cityIndex numbers city names for the router's index-keyed latency
// memo. gen is the shaper generation the memoized latencies were read at.
type cityIndex struct {
	names  []string
	byName map[string]int
	gen    uint64
}

// add returns a city's index, numbering it if it is new.
func (c *cityIndex) add(name string) int {
	i, ok := c.byName[name]
	if !ok {
		i = len(c.names)
		c.byName[name] = i
		c.names = append(c.names, name)
	}
	return i
}

// Config assembles an orchestrator.
type Config struct {
	Cluster *cluster.Cluster
	Carbon  *carbon.Service
	// Shaper provides inter-DC latencies (the tc-emulated network).
	Shaper *latency.Shaper
	// Policy is the placement objective (default CarbonAware).
	Policy placement.Policy
	// Start is the initial clock value.
	Start time.Time
	// ForecastHorizonHours sets the I_j averaging window (default 24).
	ForecastHorizonHours int
}

// New builds an orchestrator.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Cluster == nil || cfg.Carbon == nil || cfg.Shaper == nil {
		return nil, fmt.Errorf("orchestrator: cluster, carbon service, and shaper are required")
	}
	horizon := cfg.ForecastHorizonHours
	if horizon <= 0 {
		horizon = 24
	}
	o := &Orchestrator{
		cluster:     cfg.Cluster,
		carbon:      cfg.Carbon,
		shaper:      cfg.Shaper,
		placer:      placement.NewPlacer(cfg.Policy),
		horizon:     horizon,
		now:         cfg.Start,
		deployments: make(map[string]*Deployment),
		carbonByApp: metrics.NewGrouped(),
		cities:      cityIndex{byName: map[string]int{}, gen: cfg.Shaper.Gen()},
	}
	for _, dc := range cfg.Cluster.DataCenters() {
		o.cities.add(dc.City)
	}
	o.initObs()
	return o, nil
}

// rttMs is the round-trip latency in milliseconds between two cities as
// the emulated network shapes it — the single latency oracle placement
// and traffic routing share.
func (o *Orchestrator) rttMs(src, dst string) float64 {
	return 2 * float64(o.shaper.OneWay(src, dst)) / float64(time.Millisecond)
}

// rttAt is rttMs by city index: the router's oracle.
func (o *Orchestrator) rttAt(src, dst int) float64 {
	return o.rttMs(o.cities.names[src], o.cities.names[dst])
}

// syncRTT (locked) drops every memoized latency once the shaper's delays
// have changed since they were read: the router's pair memo, and the
// workspace's RTT rows and shortlists, rebuilt on the next batch.
func (o *Orchestrator) syncRTT() {
	g := o.shaper.Gen()
	if g == o.cities.gen {
		return
	}
	o.cities.gen = g
	o.ws = nil
	if o.traffic != nil {
		o.traffic.router.InvalidateRTT()
	}
}

// Now returns the orchestrator clock.
func (o *Orchestrator) Now() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.now
}

// Submit queues a deployment request for the next placement batch (step 1
// of Figure 6). Duplicate names (pending or deployed) are rejected.
func (o *Orchestrator) Submit(rec Recipe) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.deployments[rec.Name]; dup {
		return fmt.Errorf("orchestrator: %s already deployed", rec.Name)
	}
	if o.isPending(rec.Name) {
		return fmt.Errorf("orchestrator: %s already pending", rec.Name)
	}
	o.pending = append(o.pending, rec)
	return nil
}

// isPending (locked) reports whether a recipe of that name is queued.
func (o *Orchestrator) isPending(name string) bool {
	for _, p := range o.pending {
		if p.Name == name {
			return true
		}
	}
	return false
}

// PlaceBatch runs the placement service over all pending recipes (steps
// 2-3 of Figure 6) and commits the decisions. It returns the deployments
// made this batch; recipes with no feasible server are returned as
// rejected with their names.
func (o *Orchestrator) PlaceBatch() (placed []*Deployment, rejected []string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.pending) == 0 {
		return nil, nil, nil
	}
	pp := o.trace.Begin(tickPlacementIdx)
	defer o.trace.End(tickPlacementIdx, pp)
	start := time.Now() //detlint:wallclock telemetry: DeployLatency is an operator-facing wall-time metric
	batch := o.pending
	o.pending = nil

	if err := o.syncWorkspace(); err != nil {
		return nil, nil, err
	}
	apps := make([]placement.App, len(batch))
	for i, rec := range batch {
		apps[i] = placement.App{
			ID: rec.Name, Model: rec.Model, Source: rec.Source,
			SLOms: rec.SLOms, RatePerSec: rec.RatePerSec,
		}
	}
	prob, err := o.ws.Problem(apps)
	if err != nil {
		return nil, nil, err
	}
	result, err := o.placer.Place(prob)
	if err != nil {
		return nil, nil, err
	}
	o.lastSolve = result.Stats(prob)
	o.batches++
	if result.Backend == "exact" {
		if result.BnBNodes == 0 {
			o.boundBatches++
		} else {
			o.bnbBatches++
		}
	}
	servers := prob.Servers

	// Commit: power transitions first (Eq. 5), then allocations.
	a := result.Assignment
	for j, on := range a.PowerOn {
		if !on {
			continue
		}
		srv, _, err := o.cluster.FindServer(servers[j].ID)
		if err != nil {
			return nil, nil, err
		}
		if srv.State() != cluster.PoweredOn {
			if err := srv.SetState(cluster.PoweredOn); err != nil {
				return nil, nil, err
			}
		}
	}
	for i, j := range a.ServerOf {
		if j < 0 {
			// The name is in neither the live set nor the queue any more; if
			// it was evicted into this batch, its request stats go with it.
			rejected = append(rejected, batch[i].Name)
			o.retire(batch[i].Name)
			continue
		}
		srv, dc, err := o.cluster.FindServer(servers[j].ID)
		if err != nil {
			return nil, nil, err
		}
		dep := &Deployment{
			Recipe:   batch[i],
			ServerID: srv.ID,
			DCID:     dc.ID,
			ZoneID:   dc.ZoneID,
			RTTMs:    prob.LatencyMs[i][j],
			PowerW:   prob.PowerW[i][j],
		}
		rep, err := o.newReplica(dep, srv, dc)
		if err != nil {
			return nil, nil, fmt.Errorf("orchestrator: committing %s: %w", batch[i].Name, err)
		}
		if err := srv.Allocate(batch[i].Name, prob.Demand[i][j]); err != nil {
			return nil, nil, fmt.Errorf("orchestrator: committing %s: %w", batch[i].Name, err)
		}
		o.admit(dep, rep)
		placed = append(placed, dep)
	}
	//detlint:wallclock telemetry: DeployLatency is an operator-facing wall-time metric
	o.DeployLatency.Add(float64(time.Since(start)) / float64(time.Millisecond))
	return placed, rejected, nil
}

// syncWorkspace (locked) brings the long-lived workspace up to date with
// the cluster, the network and the carbon clock: lazily built on first
// use and rebuilt when the server count or the shaper's delays change,
// then each batch re-syncs free capacity and power state from the
// cluster snapshot (the allocation ground truth) and refreshes forecast
// intensities, with the per-zone forecast memoized for the current clock
// value.
func (o *Orchestrator) syncWorkspace() error {
	o.syncRTT()
	snap := o.cluster.Snapshot()
	if o.ws == nil || o.ws.NumServers() != len(snap.Servers) {
		servers := make([]placement.Server, len(snap.Servers))
		for j, st := range snap.Servers {
			servers[j] = placement.Server{
				ID:         st.ServerID,
				DC:         st.City,
				Device:     st.Device,
				BasePowerW: st.IdleW,
			}
		}
		ws, err := placement.NewWorkspace(servers, o.rttMs, nil)
		if err != nil {
			return err
		}
		o.ws = ws
		// Any workspace rebuild (first batch, scale-out growth, a restored
		// orchestrator) drops the forecast memo with it: the rebuilt view
		// must never inherit pre-rebuild forecasts.
		o.invalidateForecasts()
	}
	if o.fcCache == nil || !o.now.Equal(o.fcAt) {
		o.fcCache = map[string]float64{}
		o.fcAt = o.now
	}
	for j, st := range snap.Servers {
		mean, ok := o.fcCache[st.ZoneID]
		if !ok {
			var err error
			mean, err = o.carbon.MeanForecast(st.ZoneID, o.now, o.horizon)
			if err != nil {
				return fmt.Errorf("orchestrator: forecasting zone %s: %w", st.ZoneID, err)
			}
			// An active forecast-error fault skews the forecast placement
			// sees; telemetry still charges the true hourly intensity.
			if f, skewed := o.fcSkew[st.ZoneID]; skewed {
				mean *= f
			}
			o.fcCache[st.ZoneID] = mean
		}
		o.ws.UpdateIntensity(j, mean)
		free, on := st.Free, st.State == cluster.PoweredOn
		switch {
		case o.downServers[st.ServerID]:
			// A crashed server offers no capacity and cannot be woken.
			free, on = cluster.Resources{}, false
		default:
			if f, deg := o.degraded[st.ServerID]; deg {
				// Placement sees capacity*factor - used (what actually
				// remains on the shrunk server), never below zero.
				used := st.Capacity.Sub(st.Free)
				free = st.Capacity.Scale(f).Sub(used).ClampNonNegative()
			}
		}
		o.ws.SetServerState(j, free, on)
	}
	return nil
}

// PlacementStats reports the live solver telemetry of the orchestrator's
// workspace: the last batch's backend, solve times, and candidate-set
// sizes, plus the cumulative batch count. ok is false before the first
// placement batch.
func (o *Orchestrator) PlacementStats() (stats placement.SolveStats, batches int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastSolve, o.batches, o.batches > 0
}

// Undeploy removes a deployment and frees its resources. Its per-deployment
// request stats (the /api/v1/traffic row) leave with it — the traffic
// totals keep what it served — so reusing the name later starts a fresh
// row rather than inheriting the dead deployment's latency sketch.
func (o *Orchestrator) Undeploy(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, ok := o.deployments[name]
	if !ok {
		return fmt.Errorf("orchestrator: no deployment %q", name)
	}
	srv, _, err := o.cluster.FindServer(dep.ServerID)
	if err != nil {
		return err
	}
	if err := o.release(name, srv); err != nil {
		return err
	}
	o.retire(name)
	return nil
}

// newReplica (locked) is a deployment as the traffic router sees it.
func (o *Orchestrator) newReplica(dep *Deployment, srv *cluster.Server, dc *cluster.DataCenter) (router.Replica, error) {
	prof, err := energy.ProfileFor(dep.Recipe.Model, srv.Device.Name)
	if err != nil {
		return router.Replica{}, err
	}
	return router.Replica{
		ID:            dep.Recipe.Name,
		Loc:           o.cities.add(dc.City),
		ZoneID:        dc.ZoneID,
		CapacityRPS:   dep.Recipe.RatePerSec,
		ServiceMs:     prof.InferenceMs,
		EnergyPerReqJ: prof.EnergyPerRequestJ(),
	}, nil
}

// replicaRow (locked) finds a live deployment's row in the replica table.
func (o *Orchestrator) replicaRow(name string) (int, bool) {
	i := sort.Search(len(o.replicas), func(i int) bool { return o.replicas[i].ID >= name })
	return i, i < len(o.replicas) && o.replicas[i].ID == name
}

// admit (locked) is the one place the live set grows: the deployment
// enters the map and its row enters the replica table at its sorted
// position, drawing its provisioned power until a tick routes traffic.
func (o *Orchestrator) admit(dep *Deployment, rep router.Replica) {
	o.deployments[rep.ID] = dep
	i, _ := o.replicaRow(rep.ID)
	o.replicas = slices.Insert(o.replicas, i, rep)
	o.appW = slices.Insert(o.appW, i, dep.PowerW)
}

// release (locked) is the one place the live set shrinks: the allocation
// on srv, the map entry and the replica-table row go together (the
// workspace reads free capacity from the cluster before every solve).
// Whether the name is gone for good (retire) or comes back through the
// queue (an eviction) is the caller's.
func (o *Orchestrator) release(name string, srv *cluster.Server) error {
	if err := srv.Release(name); err != nil {
		return err
	}
	delete(o.deployments, name)
	if i, ok := o.replicaRow(name); ok {
		o.replicas = slices.Delete(o.replicas, i, i+1)
		o.appW = slices.Delete(o.appW, i, i+1)
	}
	return nil
}

// retire (locked) drops the request stats of a name that has left both
// the live set and the queue for good. Always between slices: routeTraffic
// opens and closes its slice under the same lock.
func (o *Orchestrator) retire(name string) {
	if o.traffic != nil {
		o.traffic.router.Retire(name)
	}
}

// Deployment returns a deployment by name, or nil.
func (o *Orchestrator) Deployment(name string) *Deployment {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.deployments[name]
}

// Deployments lists current deployments sorted by name.
func (o *Orchestrator) Deployments() []*Deployment {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Deployment, len(o.replicas))
	for i := range o.replicas {
		out[i] = o.deployments[o.replicas[i].ID]
	}
	return out
}

// Tick advances the clock by dt and runs one telemetry cycle: every
// powered-on server's power draw is integrated into its meter, and carbon
// is accrued at the server zone's current intensity (§5.1 "Carbon
// Monitoring": base power plus application energy).
//
// With traffic attached (AttachTraffic), the tick first routes the
// window's open-loop request slice across the deployments, and each app's
// dynamic power is driven by the requests it actually served instead of
// its static provisioned draw. A tick whose demand could not be fully
// absorbed emits an overload signal (see SetOverloadHandler).
//
// Injected fault events (InjectFault / InjectScript) due at the tick's
// start are consumed first: servers crash or recover, capacity degrades,
// forecasts skew, flash fleets appear. Deployments evicted by a crash are
// re-submitted to the placement queue and the eviction handler fires
// (see SetEvictionHandler).
func (o *Orchestrator) Tick(dt time.Duration) error {
	var fire []func()
	err := o.tick(dt, &fire)
	// The overload and eviction handlers run outside the lock so they may
	// call back into the orchestrator (e.g. PlaceBatch to re-place
	// evicted deployments).
	for _, f := range fire {
		f()
	}
	return err
}

func (o *Orchestrator) tick(dt time.Duration, fire *[]func()) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	hours := dt.Hours()

	// World dynamics first: the tick's telemetry and routing see the
	// post-fault cluster.
	fp := o.trace.Begin(tickFaultsIdx)
	evicted, err := o.consumeFaults()
	o.trace.End(tickFaultsIdx, fp)
	if len(evicted) > 0 {
		if cb := o.onEviction; cb != nil {
			now := o.now
			names := append([]string(nil), evicted...)
			*fire = append(*fire, func() { cb(now, names) })
		}
	}
	if err != nil {
		return err
	}

	// With traffic attached, routing makes appW load-driven for this tick.
	if o.traffic != nil {
		tp := o.trace.Begin(tickTrafficIdx)
		dropped, err := o.routeTraffic(dt)
		o.trace.End(tickTrafficIdx, tp)
		if err != nil {
			return err
		}
		if dropped > 0 {
			o.overloadTicks++
			o.lastOverload = o.now
			if cb := o.onOverload; cb != nil {
				now := o.now
				*fire = append(*fire, func() { cb(now, dropped) })
			}
		}
	}
	mp := o.trace.Begin(tickTelemetryIdx)
	defer o.trace.End(tickTelemetryIdx, mp)
	for _, dc := range o.cluster.DataCenters() {
		ci, err := o.carbon.Current(dc.ZoneID, o.now)
		if err != nil {
			return fmt.Errorf("orchestrator: telemetry for DC %s: %w", dc.ID, err)
		}
		for _, srv := range dc.Servers() {
			if srv.State() != cluster.PoweredOn {
				continue
			}
			w := srv.Device.IdleW
			// Dynamic power: sum of hosted apps' draws, each attributed
			// its own share of the zone's emissions.
			for _, appID := range srv.Apps() {
				if i, ok := o.replicaRow(appID); ok {
					w += o.appW[i]
					o.carbonByApp.Add(appID, o.appW[i]/1000*hours*ci)
				}
			}
			srv.Meter().Record(w, dt)
			o.energyMeter.Record(w, dt)
			o.carbonTotal += w / 1000 * hours * ci
		}
	}
	o.now = o.now.Add(dt)
	return nil
}

// AttachTraffic wires an open-loop workload generator into the tick loop:
// every Tick routes the window's aggregated request slice across the
// current deployments (each deployment is one replica, keyed by name),
// balancing by free capacity with spill-over on saturation, against the
// given end-to-end response-time SLO.
func (o *Orchestrator) AttachTraffic(gen *traffic.Generator, sloMs float64) error {
	if gen == nil {
		return fmt.Errorf("orchestrator: nil traffic generator")
	}
	r, err := router.New(router.Config{SLOms: sloMs, RTTAt: o.rttAt, PerReplica: true})
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.traffic != nil {
		return fmt.Errorf("orchestrator: traffic already attached")
	}
	srcLoc := make([]int, len(gen.Sources()))
	for i, src := range gen.Sources() {
		srcLoc[i] = o.cities.add(src.City)
	}
	o.traffic = &trafficState{gen: gen, router: r, srcLoc: srcLoc}
	return nil
}

// SetOverloadHandler registers fn, called after any Tick that dropped
// routed requests for lack of serving capacity. fn runs outside the
// orchestrator lock.
func (o *Orchestrator) SetOverloadHandler(fn func(now time.Time, dropped int64)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.onOverload = fn
}

// routeTraffic (locked) routes one tick's demand window over the replica
// table, sets every deployment's appW to the draw of the requests it
// served, and returns the dropped-request count.
func (o *Orchestrator) routeTraffic(dt time.Duration) (int64, error) {
	gen, rt := o.traffic.gen, o.traffic.router
	clear(o.appW)
	elapsed := o.now.Sub(gen.Start())
	if elapsed < 0 {
		return 0, nil
	}
	ciCache := map[string]float64{}
	for i := range o.replicas {
		zone := o.replicas[i].ZoneID
		if _, ok := ciCache[zone]; !ok {
			ci, err := o.carbon.Current(zone, o.now)
			if err != nil {
				return 0, err
			}
			ciCache[zone] = ci
		}
	}
	intensity := func(zone string) float64 { return ciCache[zone] }
	o.syncRTT()
	sl := rt.ReuseSlice(o.replicas, dt.Seconds())
	// Route every hourly slice the tick window overlaps. Each slice's
	// count is split by the telescoping difference of rounded cumulative
	// fractions, so consecutive ticks of any length partition the hour's
	// requests exactly — no demand is double-counted or skipped.
	startH := elapsed.Hours()
	endH := startH + dt.Hours()
	for h := int(startH); float64(h) < endH; h++ {
		lo := math.Max(startH, float64(h)) - float64(h)
		hi := math.Min(endH, float64(h+1)) - float64(h)
		if hi <= lo {
			continue
		}
		counts := gen.Slice(h)
		for i, loc := range o.traffic.srcLoc {
			c := float64(counts[i])
			n := int64(c*hi+0.5) - int64(c*lo+0.5)
			if n > 0 {
				sl.RouteAt(loc, n, intensity)
			}
		}
	}
	sl.Close()
	for i, n := range sl.Served() {
		o.appW[i] = float64(n) * o.replicas[i].EnergyPerReqJ / dt.Seconds()
	}
	return sl.Dropped(), nil
}

// TrafficTelemetry snapshots the attached traffic's request-level stats.
// ok is false when no traffic is attached.
func (o *Orchestrator) TrafficTelemetry() (snap router.Snapshot, overloadTicks int64, lastOverload time.Time, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.traffic == nil {
		return router.Snapshot{}, 0, time.Time{}, false
	}
	return o.traffic.router.Stats().Snapshot(), o.overloadTicks, o.lastOverload, true
}

// CurrentIntensity returns a zone's carbon intensity at the orchestrator's
// current clock, as the carbon-intensity service reports it.
func (o *Orchestrator) CurrentIntensity(zoneID string) (float64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.carbon.Current(zoneID, o.now)
}

// CarbonTotalG returns accumulated emissions in grams CO2eq (base + apps).
func (o *Orchestrator) CarbonTotalG() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.carbonTotal
}

// AppCarbonG returns the operational emissions attributed to one app.
func (o *Orchestrator) AppCarbonG(name string) float64 {
	s := o.carbonByApp.Get(name)
	if s == nil {
		return 0
	}
	return s.Sum()
}

// EnergyKWh returns total cluster energy consumed.
func (o *Orchestrator) EnergyKWh() float64 { return o.energyMeter.TotalKWh() }
