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
	"repro/internal/fleet"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// Orchestrator is the CarbonEdge control plane (Figure 6): it owns the
// emulated edge cluster's dynamic state, batches deployment requests,
// invokes the placement service, commits decisions (resource allocation +
// power transitions), and runs the telemetry loop that integrates energy
// and carbon.
//
// Time is explicit: the orchestrator advances via Tick(now, dt) so tests
// and the emulated testbed can replay a day in milliseconds.
type Orchestrator struct {
	mu sync.Mutex

	carbon *carbon.Service   //detlint:ephemeral injected dependency, re-supplied on construction
	shaper *latency.Shaper   //detlint:ephemeral injected dependency, re-supplied on construction
	placer *placement.Placer //detlint:ephemeral injected dependency, re-supplied on construction

	// servers is the server table, the one copy of the live world's
	// servers: a row per server in the cluster's DC-then-registration
	// order, each scale-out server after its own DC's rows. The
	// workspace, fault matching and telemetry all walk it in this order.
	// dcs are the cluster's data centers in registration order. New
	// copies both; the orchestrator never reads the cluster again.
	servers []*server
	dcs     []*cluster.DataCenter

	// ws is the long-lived placement workspace: built over the server
	// table on the first batch (server j is row j), it keeps profile
	// cells, RTT rows, and candidate shortlists across batches. Before
	// every solve the carbon clock refreshes its intensities and free
	// capacity and power state are re-synced from the rows; a change to
	// the shaper's delays rebuilds it (syncRTT).
	ws        *placement.Workspace
	lastSolve placement.SolveStats
	batches   int
	// boundBatches and bnbBatches split the exact-backend batches by what
	// closed them: the exact solver's certificate, or branch and bound.
	boundBatches int
	bnbBatches   int

	now         time.Time
	pending     []Recipe
	deployments map[string]*deployment
	// replicas is the live set as the traffic router sees it: one row per
	// deployment, sorted by name (the router's tie-break order), kept in
	// step with deployments by admit and release instead of being rebuilt
	// every tick. live and appW are aligned with it: live[i] is the
	// deployment (and through it, its server row), appW[i] its dynamic
	// draw for the telemetry loop — the provisioned draw until traffic is
	// attached, then what routeTraffic derives from the requests the
	// deployment served this tick.
	replicas []router.Replica
	live     []*deployment
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

	// Live fault injection (InjectScript / POST /api/v1/faults): scheduled
	// world-dynamics events consumed by Tick. The queue holds the fault
	// data itself (not closures), so SaveState serializes the not-yet-due
	// events as they are. The applicator writes the server table on
	// crashes, recoveries, degradations and scale-outs; its Skew
	// multiplies the per-zone forecast.
	faultq         events.FaultQueue
	faults         fleet.Applicator
	faultsApplied  int
	faultEvictions int
	lastFault      time.Time
	lastFaultKind  string
	evictedNow     []string //detlint:ephemeral per-tick scratch, cleared before every use
	flashSeq       int
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

// server is one row of the server table: its fleet.Row (what the fault
// applicator reads and writes), its ID and DC, and the dynamic state only
// the orchestrator writes, under its lock.
type server struct {
	fleet.Row
	id   string
	dc   *cluster.DataCenter
	apps int // deployments hosted
	// flash numbers scale-out servers from 1 in creation order; 0 for a
	// server registered with the cluster.
	flash int
	meter energy.Meter
	// ci and w are telemetry scratch, set every tick: the zone's current
	// intensity and the server's draw.
	ci, w float64
}

// newServer builds the row of a server of dc.
func newServer(id string, dc *cluster.DataCenter, dev energy.Device, capacity cluster.Resources, on bool) *server {
	return &server{Row: fleet.Row{City: dc.City, Zone: dc.ZoneID, Device: dev, Base: capacity, On: on}, id: id, dc: dc}
}

// deployment is a live deployment with the server row it holds its demand
// on.
type deployment struct {
	Deployment
	srv    *server
	demand cluster.Resources
}

// trafficState bundles the attached workload generator and its router.
// srcLoc[i] is the city index of the generator's source i.
type trafficState struct {
	gen    *traffic.Generator
	router *router.Router
	srcLoc []int
	// ci is each replica zone's carbon intensity at the routed tick,
	// refilled by every routeTraffic, and intensity the router's read of it.
	ci        map[string]float64
	intensity func(zoneID string) float64
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
}

// New builds an orchestrator.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Cluster == nil || cfg.Carbon == nil || cfg.Shaper == nil {
		return nil, fmt.Errorf("orchestrator: cluster, carbon service, and shaper are required")
	}
	o := &Orchestrator{
		carbon:      cfg.Carbon,
		shaper:      cfg.Shaper,
		placer:      placement.NewPlacer(cfg.Policy),
		now:         cfg.Start,
		deployments: make(map[string]*deployment),
		carbonByApp: metrics.NewGrouped(),
		cities:      cityIndex{byName: map[string]int{}, gen: cfg.Shaper.Gen()},
	}
	// Every registered server starts powered on.
	for _, dc := range cfg.Cluster.DataCenters() {
		o.dcs = append(o.dcs, dc)
		o.cities.add(dc.City)
		for _, spec := range dc.Servers() {
			o.servers = append(o.servers, newServer(spec.ID, dc, spec.Device, spec.Capacity, true))
		}
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
	if o.queued(rec.Name) >= 0 {
		return fmt.Errorf("orchestrator: %s already pending", rec.Name)
	}
	o.pending = append(o.pending, rec)
	return nil
}

// queued (locked) is the queue position of the recipe of that name, or -1.
func (o *Orchestrator) queued(name string) int {
	return slices.IndexFunc(o.pending, func(r Recipe) bool { return r.Name == name })
}

// PlaceBatch runs the placement service over all pending recipes (steps
// 2-3 of Figure 6) and commits the decisions. It returns the deployments
// made this batch; recipes with no feasible server are returned as
// rejected with their names. A batch that fails to solve stays queued.
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
	o.pending = nil
	o.lastSolve = result.Stats(prob)
	o.batches++
	if result.Backend == "exact" {
		if result.BnBNodes == 0 {
			o.boundBatches++
		} else {
			o.bnbBatches++
		}
	}
	// Commit: power transitions first (Eq. 5), then allocations. The
	// workspace's server j is row j.
	a := result.Assignment
	for j, on := range a.PowerOn {
		if on {
			o.servers[j].On = true
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
		srv := o.servers[j]
		d := &deployment{
			Deployment: Deployment{
				Recipe:   batch[i],
				ServerID: srv.id,
				DCID:     srv.dc.ID,
				ZoneID:   srv.dc.ZoneID,
				RTTMs:    prob.LatencyMs[i][j],
				PowerW:   prob.PowerW[i][j],
			},
			srv:    srv,
			demand: prob.Demand[i][j],
		}
		if err := o.admit(d); err != nil {
			return nil, nil, fmt.Errorf("orchestrator: committing %s: %w", batch[i].Name, err)
		}
		placed = append(placed, &d.Deployment)
	}
	//detlint:wallclock telemetry: DeployLatency is an operator-facing wall-time metric
	o.DeployLatency.Add(float64(time.Since(start)) / float64(time.Millisecond))
	return placed, rejected, nil
}

// syncWorkspace (locked) brings the long-lived workspace up to date with
// the server table, the network and the carbon clock: lazily built on
// first use and rebuilt when the server count or the shaper's delays
// change, then each batch re-syncs every row's free capacity and power
// state and refreshes forecast intensities, read once per DC the way
// tick reads the current intensity.
func (o *Orchestrator) syncWorkspace() error {
	o.syncRTT()
	if o.ws == nil || o.ws.NumServers() != len(o.servers) {
		servers := make([]placement.Server, len(o.servers))
		for j := range o.servers {
			servers[j] = fleet.Server((*table)(o), j)
		}
		ws, err := placement.NewWorkspace(servers, o.rttMs, nil)
		if err != nil {
			return err
		}
		o.ws = ws
	}
	var dc *cluster.DataCenter
	var mean float64
	for j, s := range o.servers {
		if s.dc != dc {
			dc = s.dc
			var err error
			if mean, err = o.carbon.MeanForecast(dc.ZoneID, o.now, fleet.ForecastHours); err != nil {
				return fmt.Errorf("orchestrator: forecasting zone %s: %w", dc.ZoneID, err)
			}
			mean = o.faults.Forecast(dc.ZoneID, mean)
		}
		o.ws.UpdateIntensity(j, mean)
		o.ws.SetServerState(j, s.Free(), s.On)
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

// Undeploy removes a deployment wherever it is: a live one is released
// from its server, a queued one (submitted, or evicted by a fault and
// awaiting re-placement) leaves the queue, so no later batch places it.
// Its per-deployment request stats (the /api/v1/traffic row) leave with
// it — the traffic totals keep what it served — so reusing the name later
// starts a fresh row rather than inheriting the dead deployment's latency
// sketch.
func (o *Orchestrator) Undeploy(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if d, ok := o.deployments[name]; ok {
		o.release(d)
	} else if k := o.queued(name); k >= 0 {
		o.pending = slices.Delete(o.pending, k, k+1)
	} else {
		return fmt.Errorf("orchestrator: no deployment %q", name)
	}
	o.retire(name)
	return nil
}

// newReplica (locked) is a deployment as the traffic router sees it.
func (o *Orchestrator) newReplica(d *deployment) (router.Replica, error) {
	prof, err := energy.ProfileFor(d.Recipe.Model, d.srv.Device.Name)
	if err != nil {
		return router.Replica{}, err
	}
	return router.Replica{
		ID:            d.Recipe.Name,
		Loc:           o.cities.add(d.srv.dc.City),
		ZoneID:        d.srv.dc.ZoneID,
		CapacityRPS:   d.Recipe.RatePerSec,
		ServiceMs:     prof.InferenceMs,
		EnergyPerReqJ: prof.EnergyPerRequestJ(),
	}, nil
}

// replicaRow (locked) finds a live deployment's row in the replica table.
func (o *Orchestrator) replicaRow(name string) (int, bool) {
	i := sort.Search(len(o.replicas), func(i int) bool { return o.replicas[i].ID >= name })
	return i, i < len(o.replicas) && o.replicas[i].ID == name
}

// admit (locked) is the one place the live set grows: the deployment's
// demand lands on its server row, it enters the map, and its row enters
// the replica table at its sorted position, drawing its provisioned power
// until a tick routes traffic. A name already live, a server that is off
// (Eq. 5) or one the demand does not fit (Eq. 1) is an
// internal-consistency error (or, in a restore, a refused state), and
// nothing changes.
func (o *Orchestrator) admit(d *deployment) error {
	name, srv := d.Recipe.Name, d.srv
	if _, dup := o.deployments[name]; dup {
		return fmt.Errorf("orchestrator: %s already deployed; no name is live twice", name)
	}
	if !srv.On {
		return fmt.Errorf("orchestrator: server %s is powered off; nothing sits on a powered-off server", srv.id)
	}
	if !srv.Used.Add(d.demand).Fits(srv.Cap()) {
		return fmt.Errorf("orchestrator: deployments on %s exceed its capacity: %s demand %v exceeds free capacity (used %v of %v)",
			srv.id, name, d.demand, srv.Used, srv.Cap())
	}
	rep, err := o.newReplica(d)
	if err != nil {
		return err
	}
	srv.Used = srv.Used.Add(d.demand)
	srv.apps++
	o.deployments[name] = d
	i, _ := o.replicaRow(name)
	o.replicas = slices.Insert(o.replicas, i, rep)
	o.live = slices.Insert(o.live, i, d)
	o.appW = slices.Insert(o.appW, i, d.PowerW)
	return nil
}

// release (locked) is the one place the live set shrinks: the demand on
// the server row, the map entry and the replica-table row go together.
// Whether the name is gone for good (retire) or comes back through the
// queue (an eviction) is the caller's.
func (o *Orchestrator) release(d *deployment) {
	name := d.Recipe.Name
	d.srv.Used = d.srv.Used.Sub(d.demand)
	d.srv.apps--
	delete(o.deployments, name)
	if i, ok := o.replicaRow(name); ok {
		o.replicas = slices.Delete(o.replicas, i, i+1)
		o.live = slices.Delete(o.live, i, i+1)
		o.appW = slices.Delete(o.appW, i, i+1)
	}
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
	if d := o.deployments[name]; d != nil {
		return &d.Deployment
	}
	return nil
}

// Deployments lists current deployments sorted by name.
func (o *Orchestrator) Deployments() []*Deployment {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Deployment, len(o.live))
	for i, d := range o.live {
		out[i] = &d.Deployment
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
// Injected fault events (InjectScript) due at the tick's
// start are consumed first: servers crash or recover, capacity degrades,
// forecasts skew, flash fleets appear. Deployments evicted by a crash are
// re-submitted to the placement queue and the eviction handler fires
// (see SetEvictionHandler).
//
// dt must be positive: a non-positive one is an error and changes
// nothing (no fault is consumed, no handler fires).
func (o *Orchestrator) Tick(dt time.Duration) error {
	if dt <= 0 {
		return fmt.Errorf("orchestrator: tick needs a positive duration, got %v", dt)
	}
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
	var dc *cluster.DataCenter
	var ci float64
	for _, srv := range o.servers {
		if srv.dc != dc {
			dc = srv.dc
			var err error
			if ci, err = o.carbon.Current(dc.ZoneID, o.now); err != nil {
				return fmt.Errorf("orchestrator: telemetry for DC %s: %w", dc.ID, err)
			}
		}
		srv.ci, srv.w = ci, srv.Device.IdleW
	}
	// Dynamic power: each deployment's draw adds to its server's, in name
	// order, and is attributed its own share of the zone's emissions.
	for i, d := range o.live {
		d.srv.w += o.appW[i]
		o.carbonByApp.Add(d.Recipe.Name, o.appW[i]/1000*hours*d.srv.ci)
	}
	for _, srv := range o.servers {
		if !srv.On {
			continue
		}
		srv.meter.Record(srv.w, dt)
		o.energyMeter.Record(srv.w, dt)
		o.carbonTotal += srv.w / 1000 * hours * srv.ci
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
	ts := &trafficState{gen: gen, router: r, srcLoc: srcLoc, ci: map[string]float64{}}
	ts.intensity = func(zone string) float64 { return ts.ci[zone] }
	o.traffic = ts
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
	cache := o.traffic.ci
	clear(cache)
	for i := range o.replicas {
		zone := o.replicas[i].ZoneID
		if _, ok := cache[zone]; !ok {
			ci, err := o.carbon.Current(zone, o.now)
			if err != nil {
				return 0, err
			}
			cache[zone] = ci
		}
	}
	intensity := o.traffic.intensity
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
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.carbonByApp.Get(name)
	if s == nil {
		return 0
	}
	return s.Sum()
}

// EnergyKWh returns total cluster energy consumed.
func (o *Orchestrator) EnergyKWh() float64 { return o.energyMeter.TotalKWh() }
