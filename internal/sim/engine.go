package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/traffic"
)

// Engine is the stepwise form of the simulator: NewEngine builds the
// deployment state, each Step advances one hourly epoch, and Finish
// returns the accumulated Result. Run is a thin loop over it;
// orchestration layers that need to observe or interleave simulations
// mid-flight drive Step directly.
//
// Each epoch runs one phase list — scripted faults, the carbon tick,
// departures, redeploy triggers, arrival batches, placement, traffic
// slices, and emission accrual — that NewEngine lays out once from the
// config, leaving out the phases the config cannot use. Scripted faults
// (Config.Faults) wait on an events.FaultQueue in due order, and the
// faults phase applies those due at the top of each epoch. The golden
// trajectory digests (golden_test.go) pin what this loop produces.
//
// The carbon signal is read by (zone slot, epoch index): NewEngine
// resolves one carbon.ZoneReader per distinct zone of the region, the
// carbon tick reads every slot's intensity at the epoch's trace index,
// and Step refuses an epoch that falls outside any slot's trace before
// dispatching it, so the phases read intensities and forecasts from
// arrays.
//
// Server rows reach the placement workspace where they change: every
// change to a row's capacity or power state is written through (syncRow,
// or syncRows after a pass over many rows) before anything reads the
// workspace, so a solve pushes only the epoch's forecasts.
//
// An Engine is single-goroutine (not safe for concurrent Step calls), but
// any number of engines may share one World: all world data is read-only.
type Engine struct {
	cfg Config //detlint:ephemeral the run's configuration, re-supplied to NewEngineFrom
	w   *World //detlint:ephemeral shared read-only world, re-supplied to NewEngineFrom
	// sig is ConfigSig(cfg), rendered once: every Snapshot carries it.
	sig string
	// rngSrc is the exportable-state arrival stream; rng wraps it. All
	// randomness flows through rngSrc so Snapshot can capture the stream
	// position and a restored engine resumes it bit-identically.
	rngSrc *rng.Source
	rng    *rng.Rand //detlint:ephemeral derived: wraps rngSrc, whose position is captured; Rand buffers nothing between draws

	sites []*deploy.Site
	//detlint:ephemeral derived from site geometry at construction
	rtt           [][]float64    // pairwise RTT between site cities
	siteIdxByCity map[string]int // a site of each city; restore checks count labels against it
	demandW       []float64      //detlint:ephemeral derived from the scenario at construction
	demandTotal   float64        // Σ demandW, summed once in index order
	servers       []siteServer

	// zoneSlot/zoneSlotOfSite index the region's distinct carbon zones,
	// backing the slot-keyed (not map-keyed) per-epoch arrays below.
	zoneSlot       map[string]int //detlint:ephemeral derived zone index, rebuilt at construction
	zoneSlotOfSite []int          //detlint:ephemeral derived zone index, rebuilt at construction

	// zones[slot] is the slot's carbon signal: its trace reader and the
	// epoch's intensity and mean forecast. Every slot's trace covers the
	// epochs in [spanLo, spanHi); Step refuses any other epoch before
	// dispatching it, so no read inside an epoch can fail. phaseCarbonTick
	// reads every slot's intensity and sets fcStale; the epoch's first
	// solve computes every slot's forecast, writes it to the slot's
	// servers and clears it (pushForecasts).
	zones          []zoneTrace                //detlint:ephemeral trace readers and per-epoch values, rebuilt at construction
	spanLo, spanHi int                        //detlint:ephemeral derived from the world's traces at construction
	fcStale        bool                       //detlint:ephemeral set by every epoch's carbon tick before any solve reads the forecasts
	solver         *placement.HeuristicSolver //detlint:ephemeral stateless across epochs; warm-start state lives in warmBuf inputs rebuilt per batch
	views          int                        //detlint:ephemeral telemetry: workspace views built (buildProblem), counted for tests
	visits         liveVisits                 //detlint:ephemeral telemetry: live rows and pool cells visited, counted for tests

	// ws is the persistent placement workspace: built once per run, it
	// carries the memoized profile/RTT tables and per-app candidate
	// shortlists across every batch and the redeploy path. A row's free
	// capacity and power state are written through to it where the row
	// changes (syncRow); forecast intensities once per epoch, at its
	// first solve.
	ws *placement.Workspace

	// phases is the epoch's phase list in canonical order, built by
	// NewEngine from the config; Step runs it.
	phases []phase //detlint:ephemeral derived from cfg at construction
	// faultq holds the script's faults (reverts included) not yet
	// applied, drained by the faults phase at the top of each epoch.
	// Empty without a fault script.
	faultq events.FaultQueue
	// faults is the fault applicator over the server table; its Skew is
	// the active per-zone forecast error factor (forecast-error faults).
	faults fleet.Applicator
	// forceRedeploy triggers an out-of-cadence redeploy this epoch (set
	// by faults that evicted applications).
	forceRedeploy bool
	// downCount tracks how many servers are currently crashed.
	downCount int

	// Cross-shard exchange state (see exchange.go): gateway is the
	// shard's ingress site; outbox collects unplaced fresh arrivals when
	// cfg.ForwardUnplaced; inApps/inReqs hold coordinator-injected
	// arrivals and request volume, consumed at their target epoch;
	// inDropped counts the injected requests the router dropped.
	gateway   int //detlint:ephemeral derived from cfg at construction
	outbox    []ForwardedApp
	inApps    []inboxApp
	inReqs    []inboxReq
	inDropped int64

	res *Result
	// live is the live table: the committed applications in placement
	// order, a head offset into a backing array (liveTable).
	live liveTable
	// pending accrues arrivals between batch drains; pendingSpare is the
	// previous drained batch's backing array, swapped back in as the next
	// accumulation buffer so the backlog double-buffers instead of
	// reallocating every drain.
	pending      []pendingApp
	pendingSpare []pendingApp //detlint:ephemeral double-buffer spare; contents are dead between drains
	start        time.Time
	epoch        int

	// Hot-loop scratch, reused every epoch (wiped in place, never freed).
	idPool   []string             //detlint:ephemeral interned positional backlog IDs ("q-0", "q-1", ...), re-rendered on demand
	appsBuf  []placement.App      //detlint:ephemeral per-batch scratch, wiped before every solve
	prevsBuf []int                //detlint:ephemeral per-batch scratch, wiped before every solve
	asgBuf   placement.Assignment //detlint:ephemeral per-batch scratch, wiped before every solve
	warmBuf  placement.Assignment //detlint:ephemeral per-batch scratch, wiped before every solve
	// cityMonthKey[site][month] pre-renders the MonthlyPlacements keys.
	cityMonthKey [][12]string
	// placed[site][month] tallies placements not yet folded into the
	// result's counts (foldPlacements): an array increment, not two
	// sorted-list searches. Finish and Snapshot fold first, so no
	// snapshot holds a tally and a restore starts empty. placedMonths
	// has bit m set while month m holds a tally.
	placed       [][12]int64
	placedMonths uint16
	// rows caches the JSON of the rows this engine's snapshots encode
	// (rowCache); Snapshot lends it to each one.
	rows *rowCache

	// Traffic-driven mode (cfg.Traffic != nil).
	tgen    *traffic.Generator //detlint:ephemeral stateless: slices are drawn by (seed, hour), rebuilt from cfg at construction
	trouter *router.Router
	//detlint:ephemeral configuration, derived from cfg at construction
	sloMs    float64 // end-to-end routing SLO
	sliceBuf []int64 //detlint:ephemeral per-slice scratch, wiped before every use
	// pool aggregates the live table into the router's replica set.
	// Derived state, not snapshotted: its class tables are rebuilt from
	// cfg and the server list (constructor, scale-out, and NewEngineFrom
	// — which is why detlint counts it restored and wants no ephemeral
	// tag), its cells kept at every edit of the live table and refilled
	// by indexLive.
	pool replicaPool
	// intensityFn is the pre-bound zone-intensity oracle handed to the
	// router (reads the slot memo prefilled by stepTraffic).
	intensityFn func(string) float64 //detlint:ephemeral pre-bound closure over the slot memo, rebuilt at construction

	// Observability (cfg.Obs != nil): tracer accumulates per-phase
	// timings, one probe per phase run by Step. Nil by default.
	tracer *obs.Tracer //detlint:ephemeral telemetry: phase tracer, not simulation state
}

// phase is one step of the epoch: its tracer index (phaseNames[idx] is
// the kind it is recorded under) and its action.
type phase struct {
	idx int
	run func(now time.Time) error
}

// zoneTrace is one distinct carbon zone of the region: its trace reader,
// the index of the engine's start instant in that trace (epoch t reads
// index off+t; a zone's trace may start later than the others'), and the
// epoch's values: ci, the actual intensity, read by the carbon tick, and
// fc, the mean forecast, computed by the epoch's first solve.
type zoneTrace struct {
	carbon.ZoneReader
	off    int
	fc, ci float64
}

// NewEngine validates the config and builds the simulation state against
// the shared world.
func NewEngine(cfg Config, w *World) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sites := w.Dep.InRegion(cfg.Region)
	if len(sites) == 0 {
		return nil, fmt.Errorf("sim: no sites in region %v", cfg.Region)
	}
	if len(cfg.Sites) > 0 {
		allow := make(map[string]bool, len(cfg.Sites))
		for _, city := range cfg.Sites {
			allow[city] = true
		}
		sub := sites[:0:0]
		for _, s := range sites {
			if allow[s.City] {
				sub = append(sub, s)
				delete(allow, s.City)
			}
		}
		if len(allow) > 0 {
			missing := make([]string, 0, len(allow))
			for city := range allow {
				missing = append(missing, city)
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("sim: Sites names %q, not a site in region %v", missing[0], cfg.Region)
		}
		sites = sub
	}
	src := rng.NewSource(cfg.Seed)
	e := &Engine{
		cfg:    cfg,
		w:      w,
		sig:    ConfigSig(cfg),
		rngSrc: src,
		rng:    rng.New(src),
		sites:  sites,
		pool:   replicaPool{modelIdx: map[string]int{}},
		rows:   new(rowCache),
	}
	e.pool.model(appModel)
	for _, m := range cfg.Models {
		e.pool.model(m)
	}

	// Latency model per region.
	var model latency.Model
	switch cfg.Region {
	case carbon.RegionUS:
		model = latency.USModel()
	case carbon.RegionEurope:
		model = latency.EuropeModel()
	default:
		model = latency.DefaultModel()
	}
	e.rtt = make([][]float64, len(sites))
	for i := range sites {
		e.rtt[i] = make([]float64, len(sites))
		for j := range sites {
			if i != j {
				e.rtt[i][j] = model.RTTMs(sites[i].Location, sites[j].Location)
			}
		}
	}
	e.siteIdxByCity = map[string]int{}
	for i, s := range sites {
		e.siteIdxByCity[s.City] = i
	}

	// Zone slot table: the carbon signal is read through one trace reader
	// per distinct zone, and the per-epoch forecasts and intensities are
	// kept by these dense slots instead of zone-ID strings.
	fc := cfg.Forecaster
	if fc == nil {
		fc = carbon.SeasonalNaive{Period: 24}
	}
	svc := carbon.NewService(w.Traces, fc)
	e.start = w.Traces.Start
	e.zoneSlot = map[string]int{}
	e.zoneSlotOfSite = make([]int, len(sites))
	e.spanLo, e.spanHi = math.MinInt, math.MaxInt
	for i, s := range sites {
		slot, ok := e.zoneSlot[s.ZoneID]
		if !ok {
			slot = len(e.zones)
			e.zoneSlot[s.ZoneID] = slot
			z := zoneTrace{ZoneReader: svc.Zone(s.ZoneID)}
			z.off = z.Index(e.start)
			e.spanLo, e.spanHi = max(e.spanLo, -z.off), min(e.spanHi, z.Len()-z.off)
			e.zones = append(e.zones, z)
		}
		e.zoneSlotOfSite[i] = slot
	}

	e.cityMonthKey = make([][12]string, len(sites))
	e.placed = make([][12]int64, len(sites))
	for i, s := range sites {
		for m := 0; m < 12; m++ {
			e.cityMonthKey[i][m] = fmt.Sprintf("%s/%d", s.City, m)
		}
	}

	// Demand and capacity weights.
	e.demandW = weights(sites, cfg.Demand)
	for _, v := range e.demandW {
		e.demandTotal += v
	}
	// The gateway site is the exchange ingress: forwarded arrivals and
	// spill-over traffic a shard coordinator injects originate at the
	// highest-demand site (lowest index on ties).
	for i, dw := range e.demandW {
		if dw > e.demandW[e.gateway] {
			e.gateway = i
		}
	}
	capW := weights(sites, cfg.Capacity)
	var capTotal float64
	for _, v := range capW {
		capTotal += v
	}

	// Build per-site aggregate servers.
	for i := range sites {
		scale := capW[i] / capTotal * float64(len(sites))
		for _, devName := range cfg.Devices {
			dev, err := energy.DeviceByName(devName)
			if err != nil {
				return nil, err
			}
			capMilli := cfg.CapacityMilliPerSite * scale
			e.servers = append(e.servers, e.newServer(i, dev, cluster.NewResources(capMilli,
				float64(dev.MemMB)*scale*4, float64(dev.MemMB)*scale, 1e9), cfg.ServersAlwaysOn))
		}
	}
	e.faults = fleet.Applicator{DefaultDevice: cfg.Devices[0], PowerOn: cfg.ServersAlwaysOn}

	// Engine-assembled problems are trusted: app IDs are generated unique
	// per batch and the workspace guarantees the matrix shapes and
	// ascending candidate lists, so the per-epoch hot loop skips the
	// solver's structural re-validation.
	e.solver = &placement.HeuristicSolver{SkipValidate: true}
	e.res = &Result{
		PlacementsByCity:  metrics.NewCounts(),
		MonthlyPlacements: metrics.NewCounts(),
	}

	// Persistent placement workspace over the site servers. Rows are
	// written through as they change and intensities once per epoch; the
	// expensive parts (profile cells, RTT rows, candidate shortlists) live
	// for the run.
	pservers := make([]placement.Server, len(e.servers))
	for j := range e.servers {
		pservers[j] = fleet.Server((*engineRows)(e), j)
	}
	ws, err := placement.NewWorkspace(pservers, e.rttOracle, nil)
	if err != nil {
		return nil, err
	}
	e.ws = ws

	if cfg.Obs != nil {
		e.initObs()
	}
	if cfg.Traffic != nil {
		if err := e.initTraffic(); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		if err := e.initFaults(); err != nil {
			return nil, err
		}
	}
	e.buildPhases()
	return e, nil
}

// newServer is the one way NewEngine, a scale-out and a restore build a
// server row: base capacity at full strength, nothing used, not crashed.
func (e *Engine) newServer(site int, dev energy.Device, base cluster.Resources, on bool) siteServer {
	return siteServer{
		Row:  fleet.Row{City: e.sites[site].City, Zone: e.sites[site].ZoneID, Device: dev, Base: base, On: on},
		site: site,
		pair: e.pool.pair(site, dev.Name),
	}
}

// buildPhases lays out the epoch's phase list in canonical order. A phase
// the config cannot use is left out: faults without a script, redeploy
// without a cadence or a script (an eviction forces a pass), traffic
// outside the traffic mode.
func (e *Engine) buildPhases() {
	add := func(idx int, run func(time.Time) error) {
		e.phases = append(e.phases, phase{idx: idx, run: run})
	}
	faults := e.cfg.Faults != nil
	if faults {
		add(phaseFaultsIdx, e.phaseFaults)
	}
	add(phaseCarbonIdx, e.phaseCarbonTick)
	add(phaseDepartIdx, e.phaseDepartures)
	if e.cfg.RedeployEveryHours > 0 || faults {
		add(phaseRedeployIdx, e.phaseRedeploy)
	}
	add(phaseArriveIdx, e.phaseArrivals)
	add(phasePlaceIdx, e.phasePlacement)
	if e.tgen != nil {
		add(phaseTrafficIdx, e.phaseTraffic)
	}
	add(phaseAccrueIdx, e.phaseAccrual)
}

// initTraffic builds the traffic-driven mode: the open-loop generator over
// the region's sites (demand-weighted, as the arrival sampler is) and the
// replica router with its request-level telemetry.
func (e *Engine) initTraffic() error {
	tcfg := *e.cfg.Traffic
	if tcfg.Seed == 0 {
		tcfg.Seed = e.cfg.Seed
	}
	sources := make([]traffic.Source, len(e.sites))
	for i, s := range e.sites {
		sources[i] = traffic.Source{City: s.City, Weight: e.demandW[i], Lon: s.Location.Lon}
	}
	gen, err := traffic.NewGenerator(tcfg, e.start, sources)
	if err != nil {
		return err
	}
	// End-to-end SLO: the placement RTT limit plus the slowest service
	// time any (model, device) pairing in this config can produce, so a
	// replica is SLO-feasible exactly when its network RTT is within the
	// placement limit — also on heterogeneous pools.
	models := e.cfg.Models
	if len(models) == 0 {
		models = []string{appModel}
	}
	var maxSvcMs float64
	for _, m := range models {
		for _, d := range e.cfg.Devices {
			prof, err := energy.ProfileFor(m, d)
			if err != nil {
				continue // combination never placed
			}
			if prof.InferenceMs > maxSvcMs {
				maxSvcMs = prof.InferenceMs
			}
		}
	}
	if maxSvcMs == 0 {
		return fmt.Errorf("sim: no profiled (model, device) pairing for traffic mode")
	}
	e.sloMs = e.cfg.RTTLimitMs + maxSvcMs
	r, err := router.New(router.Config{SLOms: e.sloMs, RTTAt: e.rttAt})
	if err != nil {
		return err
	}
	e.tgen, e.trouter = gen, r
	e.intensityFn = e.zoneCIOracle
	e.res.Traffic = r.Stats()
	return nil
}

// rttAt is the index form of rttOracle: pairwise RTT between two site
// indices (traffic sources and replica locations are both site-indexed).
func (e *Engine) rttAt(src, dst int) float64 { return e.rtt[src][dst] }

// Epoch is the index of the next epoch Step will execute.
func (e *Engine) Epoch() int { return e.epoch }

// Done reports whether the configured span has been simulated.
func (e *Engine) Done() bool { return e.epoch >= e.cfg.Hours }

// Finish returns the accumulated result. It may be called mid-run to
// inspect partial state; the engine keeps owning the pointer until Done.
// The per-city and per-month placement counters are folded in here (and
// before a Snapshot), not at every placement: a pointer kept from an
// earlier call sees them only as of the last fold, so call Finish again
// to read them.
func (e *Engine) Finish() *Result {
	e.foldPlacements()
	return e.res
}

// Step advances the simulation by one hourly epoch: it runs the phase
// list in order at the epoch's instant, scripted faults first. With
// Config.Obs set, one tracer probe times each phase. Calling Step after
// Done reports true is an error.
func (e *Engine) Step() error {
	if e.Done() {
		return fmt.Errorf("sim: Step past end of %d-hour span", e.cfg.Hours)
	}
	epoch := e.epoch
	now := e.start.Add(time.Duration(epoch) * time.Hour)
	if epoch < e.spanLo || epoch >= e.spanHi {
		for i := range e.zones {
			z := &e.zones[i]
			if err := z.Check(z.off + epoch); err != nil {
				return fmt.Errorf("sim: epoch %d outside trace span: %w", epoch, err)
			}
		}
	}

	for k := range e.phases {
		ph := &e.phases[k]
		var p obs.Probe
		if e.tracer != nil {
			p = e.tracer.Begin(ph.idx)
		}
		err := ph.run(now)
		if e.tracer != nil {
			e.tracer.End(ph.idx, p)
		}
		if err != nil {
			return fmt.Errorf("sim: epoch %d %s phase: %w", epoch, phaseNames[ph.idx], err)
		}
	}

	e.epoch++
	if e.Done() {
		e.closeFaultAccounting()
	}
	return nil
}

// closeFaultAccounting settles evicted apps still waiting when the span
// ends (an outage that outlives the run): they count as lost, down from
// eviction to the end of the run or their own departure, whichever is
// first — so Evictions == Replaced + Lost holds for every script.
func (e *Engine) closeFaultAccounting() {
	fs := e.res.Faults
	if fs == nil {
		return
	}
	for _, p := range e.pending {
		if p.evictedAt < 0 {
			continue
		}
		end := e.cfg.Hours
		if p.expires < end {
			end = p.expires
		}
		fs.Lost++
		fs.DowntimeEpochs += end - p.evictedAt
	}
	e.pending = nil
}

// phaseFaults applies the scripted faults due this epoch through the
// shared applicator, in the queue's (due instant, script order). After
// each fault every row is written through to the workspace (syncRows; a
// scale-out registers its row through AddServers), and a forecast error
// reaches it with the epoch's forecasts, which the carbon tick that
// follows marks stale. Evicted applications are queued back through the
// placement path and an eviction forces a redeploy pass this epoch.
func (e *Engine) phaseFaults(now time.Time) error {
	fs := e.res.Faults
	for sf, _, ok := e.faultq.PopDue(now); ok; sf, _, ok = e.faultq.PopDue(now) {
		fs.Events++
		out, err := e.faults.Apply((*engineRows)(e), sf.Fault)
		e.syncRows()
		fs.ServerCrashes += out.Crashed
		fs.ServerRecoveries += out.Recovered
		e.downCount += out.Crashed - out.Recovered
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// phaseCarbonTick starts the epoch's carbon clock: every zone slot's
// intensity is read at this epoch's trace index (zoneTrace.off + epoch),
// and the slots' forecasts are marked stale for the epoch's first solve.
func (e *Engine) phaseCarbonTick(time.Time) error {
	for i := range e.zones {
		z := &e.zones[i]
		z.ci, _ = z.At(z.off + e.epoch) // in span: checked by Step
	}
	e.fcStale = true
	return nil
}

// phaseDepartures releases applications whose lifetime ended.
func (e *Engine) phaseDepartures(time.Time) error {
	e.stepDepartures(e.epoch)
	return nil
}

// phaseRedeploy re-places the live applications when the periodic cadence
// is due — or immediately after an eviction storm (forceRedeploy), so
// evicted load redistributes without waiting for the next scheduled pass.
func (e *Engine) phaseRedeploy(now time.Time) error {
	epoch := e.epoch
	due := e.cfg.RedeployEveryHours > 0 && epoch > 0 && epoch%e.cfg.RedeployEveryHours == 0
	force := e.forceRedeploy
	e.forceRedeploy = false
	if (due || force) && e.live.len() > 0 {
		return e.redeploy(now)
	}
	return nil
}

// phaseArrivals draws the epoch's Poisson arrivals.
func (e *Engine) phaseArrivals(time.Time) error {
	e.stepArrivals()
	return nil
}

// phasePlacement drains the batch backlog on its cadence and solves it.
func (e *Engine) phasePlacement(now time.Time) error {
	epoch := e.epoch
	batch := e.drainBatch(epoch)
	if len(batch) == 0 {
		return nil
	}
	return e.stepPlacement(batch, epoch, int(now.Month())-1)
}

// phaseTraffic routes the epoch's request slice (traffic mode only).
func (e *Engine) phaseTraffic(now time.Time) error {
	return e.stepTraffic(e.epoch, int(now.Month())-1)
}

// phaseAccrual integrates the epoch's energy and emissions.
func (e *Engine) phaseAccrual(now time.Time) error {
	if fs := e.res.Faults; fs != nil && e.downCount > 0 {
		fs.OutageEpochs++
	}
	e.stepAccrual(int(now.Month()) - 1)
	return nil
}

// release takes a live app's demand off its server and, unless servers
// are always on, powers the server off once it hosts nothing: the one
// rule departures, redeploy and evictions share. It leaves the workspace
// to its caller, which writes the row through (syncRow) once it is done
// with it.
func (e *Engine) release(a *liveApp) {
	srv := &e.servers[a.srv]
	srv.Used = srv.Used.Sub(a.demand)
	if !e.cfg.ServersAlwaysOn && srv.Used.Dominant(srv.Cap()) <= 0 {
		srv.On = false
	}
}

// pendingApp is one backlog entry awaiting placement: a fresh arrival
// (expires/evictedAt -1: its lifetime starts when placed) or an app a
// fault evicted (keeps its original departure epoch, retried every batch
// until placed or expired, accruing downtime).
type pendingApp struct {
	app       placement.App
	src       int // source site index
	expires   int // fixed departure epoch; -1 = AppLifetimeHours from placement
	evictedAt int // epoch of eviction; -1 for fresh arrivals
	// injected marks a cross-shard forwarded arrival: if it goes
	// unplaced again it is dropped (Unplaced) rather than re-forwarded,
	// so exchanged apps travel at most one hop.
	injected bool
}

// queueID returns the interned ID for backlog position pos, growing the
// pool on demand. Batch IDs only need to be unique within one solve
// (placement validation), so every backlog entry is named by its queue
// position and the rendered strings are reused for the whole run.
func (e *Engine) queueID(pos int) string {
	for len(e.idPool) <= pos {
		e.idPool = append(e.idPool, "q-"+strconv.Itoa(len(e.idPool)))
	}
	return e.idPool[pos]
}

// stepArrivals draws this epoch's Poisson arrivals into the backlog
// (source site sampled by demand weight).
func (e *Engine) stepArrivals() {
	n := poisson(e.rng, e.cfg.ArrivalsPerHour)
	for k := 0; k < n; k++ {
		src := sampleWeighted(e.rng, e.demandW, e.demandTotal)
		mi := 0 // NewEngine interns appModel first
		if len(e.cfg.Models) > 0 {
			mi = e.pool.model(e.cfg.Models[e.rng.Intn(len(e.cfg.Models))])
		}
		app := *e.appTemplate(mi, src)
		app.ID = e.queueID(len(e.pending))
		e.pending = append(e.pending, pendingApp{
			app:       app,
			src:       src,
			expires:   -1,
			evictedAt: -1,
		})
	}
	e.consumeInboxApps()
}

// drainBatch empties the backlog every BatchHours (Algorithm 1 batching)
// and at the final epoch. Evicted apps whose lifetime ran out while they
// waited are dropped as lost, with their wait charged as downtime.
func (e *Engine) drainBatch(epoch int) []pendingApp {
	batchHours := e.cfg.BatchHours
	if batchHours <= 0 {
		batchHours = 1
	}
	if (epoch+1)%batchHours != 0 && epoch != e.cfg.Hours-1 {
		return nil
	}
	batch := e.pending
	// Double-buffer the backlog: the spare array (last drain's batch,
	// fully consumed within its epoch) becomes the next accumulator.
	e.pending = e.pendingSpare[:0]
	e.pendingSpare = batch
	if fs := e.res.Faults; fs != nil {
		keep := batch[:0]
		for _, p := range batch {
			if p.evictedAt >= 0 && p.expires <= epoch {
				fs.Lost++
				fs.DowntimeEpochs += p.expires - p.evictedAt
				continue
			}
			keep = append(keep, p)
		}
		batch = keep
	}
	return batch
}

// pushForecasts computes every zone slot's mean forecast for this epoch,
// once (the forecaster is deterministic, and an epoch may solve twice:
// redeploy, then placement), skewed by any active forecast-error fault,
// and writes it to each server of the slot.
func (e *Engine) pushForecasts() error {
	for i := range e.zones {
		z := &e.zones[i]
		v, err := z.MeanForecast(z.off+e.epoch, fleet.ForecastHours)
		if err != nil {
			return err
		}
		z.fc = e.faults.Forecast(z.ID(), v)
	}
	for j := range e.servers {
		e.ws.UpdateIntensity(j, e.zones[e.zoneSlotOfSite[e.servers[j].site]].fc)
	}
	e.fcStale = false
	return nil
}

// zoneCISite returns the current (actual, hourly) carbon intensity of a
// site's zone this epoch, as the carbon tick read it.
func (e *Engine) zoneCISite(site int) float64 {
	return e.zones[e.zoneSlotOfSite[site]].ci
}

// zoneCIOracle resolves a zone's current intensity for the traffic
// router, which names zones by ID.
func (e *Engine) zoneCIOracle(zone string) float64 {
	return e.zones[e.zoneSlot[zone]].ci
}

// syncRow writes row j's free capacity and power state through to the
// placement workspace. Every change to a row is followed by it (or by
// syncRows), so between phases the workspace's server views equal the
// rows (checkPhysical holds them to it) and a solve syncs nothing.
func (e *Engine) syncRow(j int) {
	srv := &e.servers[j]
	e.ws.SetServerState(j, srv.Free(), srv.On)
}

// syncRows writes every row through: after a fault, which may touch any
// number of rows, and after each of redeploy's release and commit passes,
// which touch every row that hosts an app.
func (e *Engine) syncRows() {
	for j := range e.servers {
		e.syncRow(j)
	}
}

// buildProblem assembles the batch's placement problem against the
// current server state through the persistent workspace: the rows are
// already written through, the epoch's first solve pushes the forecasts,
// and the matrices are shortlist-backed views. A batch is viewed once;
// solve may run more than once on the view (redeploy's identity fallback).
func (e *Engine) buildProblem(apps []placement.App) (*placement.Problem, error) {
	if e.fcStale {
		if err := e.pushForecasts(); err != nil {
			return nil, err
		}
	}
	e.views++
	return e.ws.Problem(apps)
}

// solve runs one Algorithm 1 invocation on a built view and records its
// telemetry, for both the arrival and redeploy paths: every solve counts
// one batch and its solver wall time. A non-nil warm assignment seeds the
// solver from a previous solution.
func (e *Engine) solve(prob *placement.Problem, warm *placement.Assignment) (*placement.Assignment, error) {
	t0 := time.Now() //detlint:wallclock telemetry: Result.SolveTime reports solver wall time, not simulated time
	if err := e.solver.SolveInto(&e.asgBuf, prob, e.cfg.Policy, warm); err != nil {
		return nil, err
	}
	e.res.SolveTime += time.Since(t0) //detlint:wallclock telemetry: Result.SolveTime reports solver wall time, not simulated time
	e.res.Batches++
	return &e.asgBuf, nil
}

// stepPlacement solves Algorithm 1 on one batch and commits the
// placements. Fresh arrivals with no feasible server are dropped
// (Unplaced); evicted apps go back to the backlog and retry next batch.
func (e *Engine) stepPlacement(batch []pendingApp, epoch, month int) error {
	e.appsBuf = e.appsBuf[:0]
	for i := range batch {
		e.appsBuf = append(e.appsBuf, batch[i].app)
	}
	apps := e.appsBuf
	prob, err := e.buildProblem(apps)
	if err != nil {
		return err
	}
	asg, err := e.solve(prob, nil)
	if err != nil {
		return err
	}

	for i, j := range asg.ServerOf {
		if j < 0 {
			if batch[i].evictedAt >= 0 {
				// No feasible server this batch (outage still in force);
				// keep retrying until the app's lifetime runs out. Its ID
				// is re-derived from the new backlog position.
				p := batch[i]
				p.app.ID = e.queueID(len(e.pending))
				e.pending = append(e.pending, p)
			} else if e.cfg.ForwardUnplaced && !batch[i].injected {
				// Export the arrival for placement on another shard
				// instead of dropping it; the destination charges
				// Unplaced if it cannot host it either (one hop max).
				e.outbox = append(e.outbox, ForwardedApp{Epoch: epoch, Model: apps[i].Model})
			} else {
				e.res.Unplaced++
			}
			continue
		}
		e.res.Placed++
		srv := &e.servers[j]
		srv.Used = srv.Used.Add(prob.Demand[i][j])
		srv.On = true
		e.syncRow(j)
		expires := epoch + e.cfg.AppLifetimeHours
		if batch[i].expires >= 0 {
			expires = batch[i].expires
		}
		rtt := prob.LatencyMs[i][j]
		e.admit(liveApp{
			srv:     j,
			site:    srv.site,
			mi:      e.pool.model(apps[i].Model),
			demand:  prob.Demand[i][j],
			powerW:  prob.PowerW[i][j],
			rttMs:   rtt,
			expires: expires,
			srcSite: batch[i].src,
		})
		if batch[i].evictedAt >= 0 {
			fs := e.res.Faults
			fs.Replaced++
			fs.DowntimeEpochs += epoch - batch[i].evictedAt
		}
		e.res.Latency.Add(rtt)
		e.res.MonthlyLatency[month].Add(rtt)
		e.placed[srv.site][month]++
		e.placedMonths |= 1 << month
	}
	return nil
}

// foldPlacements moves the placement counts stepPlacement tallied into the
// result's PlacementsByCity and MonthlyPlacements and empties the table.
func (e *Engine) foldPlacements() {
	for ; e.placedMonths != 0; e.placedMonths &= e.placedMonths - 1 {
		m := bits.TrailingZeros16(e.placedMonths)
		for site := range e.placed {
			if n := e.placed[site][m]; n > 0 {
				e.res.PlacementsByCity.Add(e.sites[site].City, n)
				e.res.MonthlyPlacements.Add(e.cityMonthKey[site][m], n)
				e.placed[site][m] = 0
			}
		}
	}
}

// stepTraffic runs one epoch of the traffic-driven mode: it draws the
// epoch's aggregated per-site request slice, routes it across the live
// applications (the replica pool), and folds the routed requests' energy
// and per-request carbon attribution into the run totals. A no-op in the
// classic epoch mode.
func (e *Engine) stepTraffic(epoch, month int) error {
	if e.tgen == nil {
		return nil
	}
	replicas, err := e.trafficReplicas()
	if err != nil {
		return err
	}
	// Load-CI sampling (Figure 11c) keeps its classic per-app-hour
	// semantics in traffic mode: one sample per live application per
	// epoch.
	if e.cfg.CollectLoadCI {
		live := e.live.items()
		for i := range live {
			e.res.LoadCI = append(e.res.LoadCI, e.zoneCISite(live[i].site))
		}
	}
	st := e.res.Traffic
	kwh0, grams0 := st.EnergyKWh, st.CarbonG
	viol0, drop0 := st.Requests-st.SLOMet, st.Dropped
	sl := e.trouter.ReuseSlice(replicas, 3600)
	// Traffic sources are built 1:1 over the region's sites, so the slice
	// index is the source's site index and routing goes through the
	// index-keyed RTT table.
	e.sliceBuf = e.tgen.AppendSlice(e.sliceBuf[:0], epoch)
	for i, n := range e.sliceBuf {
		if n > 0 {
			sl.RouteAt(i, n, e.intensityFn)
		}
	}
	// Cross-shard spill-over volume due this epoch routes from the
	// gateway after the epoch's own sources, in injection order.
	if len(e.inReqs) > 0 {
		own := sl.Dropped()
		keep := e.inReqs[:0]
		for _, p := range e.inReqs {
			if p.epoch > epoch {
				keep = append(keep, p)
				continue
			}
			sl.RouteAt(e.gateway, p.n, e.intensityFn)
		}
		e.inReqs = keep
		e.inDropped += sl.Dropped() - own
	}
	sl.Close()
	e.res.EnergyKWh += st.EnergyKWh - kwh0
	e.res.CarbonG += st.CarbonG - grams0
	e.res.MonthlyCarbonG[month] += st.CarbonG - grams0
	if fs := e.res.Faults; fs != nil && e.downCount > 0 {
		// Service quality while servers are down: requests outside the
		// SLO (spill-over and drops included) attributed to the outage.
		fs.ViolationsDuringOutage += (st.Requests - st.SLOMet) - viol0
		fs.DroppedDuringOutage += st.Dropped - drop0
	}
	return nil
}

// stepAccrual charges every live app's dynamic energy — plus woken
// servers' base power when power management is on — at the hosting zone's
// actual hourly carbon intensity. In the traffic-driven mode the dynamic
// term is load-driven and already accrued by stepTraffic, so only the
// base-power term applies here.
func (e *Engine) stepAccrual(month int) {
	if e.tgen == nil {
		live := e.live.items()
		for i := range live {
			a := &live[i]
			ci := e.zoneCISite(a.site)
			kwh := a.powerW / 1000
			e.res.CarbonG += kwh * ci
			e.res.EnergyKWh += kwh
			e.res.MonthlyCarbonG[month] += kwh * ci
			if e.cfg.CollectLoadCI {
				e.res.LoadCI = append(e.res.LoadCI, ci)
			}
		}
	}
	if !e.cfg.ServersAlwaysOn {
		for j := range e.servers {
			srv := &e.servers[j]
			if srv.On {
				ci := e.zoneCISite(srv.site)
				kwh := srv.Device.IdleW / 1000
				e.res.CarbonG += kwh * ci
				e.res.EnergyKWh += kwh
				e.res.MonthlyCarbonG[month] += kwh * ci
			}
		}
	}
}

// rttOracle resolves the pairwise RTT between two site cities.
func (e *Engine) rttOracle(source, dc string) float64 {
	return e.rtt[e.siteIdxByCity[source]][e.siteIdxByCity[dc]]
}

// appTemplate returns the placement.App of an app of the model interned
// as mi from source site src, but for the ID. There is one template per
// (model, source site), at pool.apps[mi x site count + src], built and
// bound to the workspace the first time an arrival or a redeploy needs
// that shape, so no later view looks its class up. The pointer is valid
// until the next appTemplate call: callers copy the template out.
func (e *Engine) appTemplate(mi, src int) *placement.App {
	k := mi*len(e.sites) + src
	for len(e.pool.apps) <= k {
		e.pool.apps = append(e.pool.apps, placement.App{})
	}
	t := &e.pool.apps[k]
	if t.Source == "" {
		*t = placement.App{Model: e.pool.models[mi], Source: e.sites[src].City, SLOms: e.cfg.RTTLimitMs, RatePerSec: appRatePerSec}
		e.ws.Bind(t)
	}
	return t
}

// redeploy re-places all live applications (the §7 extension). Apps keep
// their previous placement when the solver cannot improve on feasibility;
// relocated apps pay the configured data-movement energy at the
// destination zone's current carbon intensity.
func (e *Engine) redeploy(now time.Time) error {
	// Free every live app's resources so the solver sees the full space.
	live := e.live.items()
	e.prevsBuf = e.prevsBuf[:0]
	for i := range live {
		a := &live[i]
		e.prevsBuf = append(e.prevsBuf, a.srv)
		e.release(a)
	}
	e.syncRows()
	prevs := e.prevsBuf

	e.appsBuf = e.appsBuf[:0]
	for i := range live {
		a := &live[i]
		e.appsBuf = append(e.appsBuf, *e.appTemplate(a.mi, a.srcSite))
		e.appsBuf[i].ID = e.queueID(i)
	}
	apps := e.appsBuf
	// The identity placement — each live app on its current server — is
	// feasible by construction. Optional warm start (§7 extension knob):
	// seed the solver with it so local search only pays for what actually
	// moved. Off by default: the warm-seeded local optimum can differ from
	// the cold one, and the paper's redeploy figures are produced cold.
	e.warmBuf.ServerOf = append(e.warmBuf.ServerOf[:0], prevs...)
	e.warmBuf.PowerOn = e.warmBuf.PowerOn[:0]
	e.warmBuf.Unplaced = nil
	var warm *placement.Assignment
	if e.cfg.WarmRedeploy {
		warm = &e.warmBuf
	}
	prob, err := e.buildProblem(apps)
	if err != nil {
		return err
	}
	asg, err := e.solve(prob, warm)
	if err == nil && warm == nil && len(asg.Unplaced) > 0 {
		// The cold greedy left a running app unplaced: redeploy from the
		// identity seed instead, which local search only improves by
		// fitting moves, so no app is lost and no server over-committed.
		// Nothing changed since the view was built, so it is solved again.
		asg, err = e.solve(prob, &e.warmBuf)
	}
	if err != nil {
		return err
	}

	for i, j := range asg.ServerOf {
		if j < 0 {
			return fmt.Errorf("sim: redeploy left live app %s (%s, on server %d) unplaced", apps[i].ID, apps[i].Model, prevs[i])
		}
		srv := &e.servers[j]
		a := &live[i]
		moved := j != prevs[i]
		a.srv = j
		a.site = srv.site
		a.demand = prob.Demand[i][j]
		a.powerW = prob.PowerW[i][j]
		a.rttMs = prob.LatencyMs[i][j]
		srv.Used = srv.Used.Add(a.demand)
		srv.On = true
		if moved {
			e.res.Migrations++
			joules := e.cfg.MigrationDataMB * e.cfg.MigrationJPerMB
			if joules > 0 {
				ci := e.zoneCISite(srv.site)
				kwh := joules / 3.6e6
				e.res.MigrationKWh += kwh
				e.res.MigrationCarbonG += kwh * ci
				e.res.EnergyKWh += kwh
				e.res.CarbonG += kwh * ci
				e.res.MonthlyCarbonG[int(now.Month())-1] += kwh * ci
			}
		}
	}
	// A redeploy re-commits every live app, so it writes every row
	// through once rather than once per app, and refills the pool cells
	// the moves changed.
	e.syncRows()
	e.indexLive()
	return nil
}
