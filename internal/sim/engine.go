package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/traffic"
)

// Observer taps the engine after each committed epoch. The result pointer
// is the engine's live accumulator: read it, don't mutate it. Observers
// run on the engine's goroutine, so a slow observer slows the simulation.
type Observer interface {
	// OnEpoch fires after epoch's departures, placements, and accruals
	// have committed. now is the epoch's wall-clock instant in the trace
	// year.
	OnEpoch(epoch int, now time.Time, res *Result)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(epoch int, now time.Time, res *Result)

// OnEpoch implements Observer.
func (f ObserverFunc) OnEpoch(epoch int, now time.Time, res *Result) { f(epoch, now, res) }

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
// carbon tick moves every slot to the epoch's trace index, and Step
// refuses an epoch that falls outside any slot's trace before dispatching
// it, so the phases read intensities and forecasts from arrays.
//
// An Engine is single-goroutine (not safe for concurrent Step calls), but
// any number of engines may share one World: all world data is read-only.
type Engine struct {
	cfg Config
	w   *World //detlint:ephemeral shared read-only world, re-supplied to NewEngineFrom
	// rngSrc is the exportable-state arrival stream; rng wraps it. All
	// randomness flows through rngSrc so Snapshot can capture the stream
	// position and a restored engine resumes it bit-identically.
	rngSrc *rng.Source
	rng    *rng.Rand //detlint:ephemeral derived: wraps rngSrc, whose position is captured; Rand buffers nothing between draws

	sites []*deploy.Site
	//detlint:ephemeral derived from site geometry at construction
	rtt           [][]float64    // pairwise RTT between site cities
	siteIdxByCity map[string]int //detlint:ephemeral derived from the site list at construction
	demandW       []float64      //detlint:ephemeral derived from the scenario at construction
	demandTotal   float64        // Σ demandW, summed once in index order
	servers       []siteServer

	// zoneSlot/zoneSlotOfSite index the region's distinct carbon zones,
	// backing the slot-keyed (not map-keyed) per-epoch memos below.
	zoneSlot       map[string]int //detlint:ephemeral derived zone index, rebuilt at construction
	zoneSlotOfSite []int          //detlint:ephemeral derived zone index, rebuilt at construction

	// zones[slot] is the slot's carbon signal: its trace reader and the
	// epoch's forecast and intensity memos. Every slot's trace covers the
	// epochs in [spanLo, spanHi); Step refuses any other epoch before
	// dispatching it, so no read inside an epoch can fail. phaseCarbonTick
	// sets tick, the epoch the memos read, and bumps zoneGen, their
	// generation, invalidating every slot without clearing.
	zones          []zoneTrace                //detlint:ephemeral trace readers and per-epoch memos, rebuilt at construction
	spanLo, spanHi int                        //detlint:ephemeral derived from the world's traces at construction
	tick, zoneGen  int                        //detlint:ephemeral carbon clock of the memos; every epoch's tick resets it before any read
	horizon        int                        //detlint:ephemeral configuration, derived from cfg at construction
	solver         *placement.HeuristicSolver //detlint:ephemeral stateless across epochs; warm-start state lives in warmBuf inputs rebuilt per batch

	// ws is the persistent placement workspace: built once per run, it
	// carries the memoized profile/RTT tables and per-app candidate
	// shortlists across every batch and the redeploy path. Server state
	// is synced into it from the engine's aggregate site servers before
	// each solve; intensities update on the carbon clock.
	ws *placement.Workspace

	// phases is the epoch's phase list in canonical order, built by
	// NewEngine from the config; Step runs it.
	phases []phase //detlint:ephemeral derived from cfg at construction
	// faultq holds the script's faults (reverts included) not yet
	// applied, drained by the faults phase at the top of each epoch.
	// Empty without a fault script.
	faultq events.FaultQueue
	// fcErr is the active per-zone forecast error factor (forecast-error
	// faults); nil reads return no factor.
	fcErr map[string]float64
	// forceRedeploy triggers an out-of-cadence redeploy this epoch (set
	// by faults that evicted applications).
	forceRedeploy bool
	// downCount tracks how many servers are currently crashed.
	downCount int
	evictSeq  int

	// Cross-shard exchange state (see exchange.go): gateway is the
	// shard's ingress site; outbox collects unplaced fresh arrivals when
	// cfg.ForwardUnplaced; inApps/inReqs hold coordinator-injected
	// arrivals and request volume, consumed at their target epoch.
	gateway int //detlint:ephemeral derived from cfg at construction
	outbox  []ForwardedApp
	inApps  []inboxApp
	inReqs  []inboxReq

	res  *Result
	live []liveApp
	// pending accrues arrivals between batch drains; pendingSpare is the
	// previous drained batch's backing array, swapped back in as the next
	// accumulation buffer so the backlog double-buffers instead of
	// reallocating every drain.
	pending      []pendingApp
	pendingSpare []pendingApp //detlint:ephemeral double-buffer spare; contents are dead between drains
	appSeq       int
	start        time.Time
	epoch        int

	// Hot-loop scratch, reused every epoch (wiped in place, never freed).
	idPool   []string             //detlint:ephemeral interned positional backlog IDs ("q-0", "q-1", ...), re-rendered on demand
	appsBuf  []placement.App      //detlint:ephemeral per-batch scratch, wiped before every solve
	prevsBuf []int                //detlint:ephemeral per-batch scratch, wiped before every solve
	asgBuf   placement.Assignment //detlint:ephemeral per-batch scratch, wiped before every solve
	warmBuf  placement.Assignment //detlint:ephemeral per-batch scratch, wiped before every solve
	// cityMonthKey[site][month] pre-renders the MonthlyPlacements keys.
	cityMonthKey [][12]string //detlint:ephemeral pre-rendered key strings, derived at construction

	// Traffic-driven mode (cfg.Traffic != nil).
	tgen    *traffic.Generator //detlint:ephemeral stateless: slices are drawn by (seed, hour), rebuilt from cfg at construction
	trouter *router.Router
	//detlint:ephemeral configuration, derived from cfg at construction
	sloMs    float64 // end-to-end routing SLO
	sliceBuf []int64 //detlint:ephemeral per-slice scratch, wiped before every use
	// pool aggregates e.live into the router's replica set. Derived
	// state, not snapshotted: its class tables are rebuilt from cfg and
	// the server list (constructor, scale-out, and NewEngineFrom — which
	// is why detlint counts it restored and wants no ephemeral tag), its
	// replicas rewritten every epoch.
	pool replicaPool
	// intensityFn is the pre-bound zone-intensity oracle handed to the
	// router (reads the slot memo prefilled by stepTraffic).
	intensityFn func(string) float64 //detlint:ephemeral pre-bound closure over the slot memo, rebuilt at construction

	// Observability (cfg.Obs != nil): tracer accumulates per-phase
	// timings, one probe per phase run by Step; recorder keeps the most
	// recent phases and faults run. Both nil by default.
	tracer   *obs.Tracer //detlint:ephemeral telemetry: phase tracer, not simulation state
	recorder *obs.FlightRecorder

	observers []Observer //detlint:ephemeral callback hooks, re-registered by the embedding process
}

// phase is one step of the epoch: its tracer index (phaseNames[idx] is
// the kind it is recorded under) and its action.
type phase struct {
	idx int
	run func(now time.Time) error
}

// replicaPool turns the live applications into the router's replica set
// by array lookup. Applications sharing a (site, model, device) triple are
// one replica; the triple is addressed as cells[model][pair], with models
// and (site, device) pairs interned to dense indices when they enter the
// engine, so the per-epoch walk over e.live hashes nothing.
type replicaPool struct {
	modelIdx map[string]int
	// pairs lists the distinct (site, device) pairs; siteServer.pair
	// indexes it. A pair is not a server: a scale-out adds servers to an
	// existing pair, and their applications must keep pooling with it.
	pairs []poolPair
	cells [][]poolCell // [model][pair]
	// gen stamps the cells that have a replica in this epoch's buf.
	gen int
	buf []router.Replica
}

// poolPair is one (site, device) hosting class.
type poolPair struct {
	site   int
	device string
}

// poolCell is one (model, pair) replica class: its capacity-free
// prototype, built on first use, and its position in the current pool.
type poolCell struct {
	proto router.Replica
	gen   int // 0: never used, proto not built; slot is valid when gen == replicaPool.gen
	slot  int
}

// zoneTrace is one distinct carbon zone of the region: its trace reader,
// the index of the engine's start instant in that trace (epoch t reads
// index off+t; a zone's trace may start later than the others'), and the
// epoch's mean-forecast and intensity memos, each valid when its stamp
// equals Engine.zoneGen.
type zoneTrace struct {
	carbon.ZoneReader
	off          int
	fc, ci       float64
	fcGen, ciGen int
}

// model returns the dense index of a model name, interning a new one.
// Every model of the config is interned at construction, so the append
// runs again only for a model a coordinator injects from outside it.
func (p *replicaPool) model(name string) int {
	mi, ok := p.modelIdx[name]
	if !ok {
		mi = len(p.cells)
		p.modelIdx[name] = mi
		p.cells = append(p.cells, make([]poolCell, len(p.pairs)))
	}
	return mi
}

// pair returns the dense index of a (site, device) pair, interning a new
// one. It runs once per server created (constructor, scale-out, restore).
func (p *replicaPool) pair(site int, device string) int {
	k := poolPair{site: site, device: device}
	for i, have := range p.pairs {
		if have == k {
			return i
		}
	}
	p.pairs = append(p.pairs, k)
	for mi := range p.cells {
		p.cells[mi] = append(p.cells[mi], poolCell{})
	}
	return len(p.pairs) - 1
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
		rngSrc: src,
		rng:    rng.New(src),
		sites:  sites,
		pool:   replicaPool{modelIdx: map[string]int{}},
	}
	e.pool.model(cfg.Model)
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
	// per distinct zone, and the per-epoch forecast/intensity memos are
	// keyed by these dense slots instead of zone-ID strings.
	fc := cfg.Forecaster
	if fc == nil {
		fc = carbon.SeasonalNaive{Period: 24}
	}
	svc := carbon.NewService(w.Traces, fc)
	e.horizon = cfg.ForecastHorizonHours
	if e.horizon <= 0 {
		e.horizon = 24
	}
	e.start = w.Traces.Start.Add(time.Duration(cfg.StartHour) * time.Hour)
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
			capVec := cluster.NewResources(capMilli,
				float64(dev.MemMB)*scale*4, float64(dev.MemMB)*scale, 1e9)
			e.servers = append(e.servers, siteServer{
				site:    i,
				pair:    e.pool.pair(i, dev.Name),
				device:  dev,
				baseCap: capVec,
				cap:     capVec,
				on:      cfg.ServersAlwaysOn,
			})
		}
	}

	// Engine-assembled problems are trusted: app IDs are generated unique
	// per batch and the workspace guarantees the matrix shapes and
	// ascending candidate lists, so the per-epoch hot loop skips the
	// solver's structural re-validation.
	e.solver = &placement.HeuristicSolver{SkipValidate: true}
	e.res = &Result{
		PlacementsByCity:  metrics.NewCounter(),
		MonthlyPlacements: metrics.NewCounter(),
	}

	// Persistent placement workspace over the site servers. Intensity and
	// free-capacity views are synced per batch; the expensive parts
	// (profile cells, RTT rows, candidate shortlists) live for the run.
	pservers := make([]placement.Server, len(e.servers))
	for j := range e.servers {
		srv := &e.servers[j]
		pservers[j] = placement.Server{
			ID:         "srv-" + strconv.Itoa(j),
			DC:         sites[srv.site].City,
			Device:     srv.device.Name,
			BasePowerW: srv.device.IdleW,
			PoweredOn:  srv.on,
			Free:       srv.cap,
		}
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
		models = []string{e.cfg.Model}
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

// AddObserver registers a per-epoch metrics tap.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// Epoch is the index of the next epoch Step will execute.
func (e *Engine) Epoch() int { return e.epoch }

// Done reports whether the configured span has been simulated.
func (e *Engine) Done() bool { return e.epoch >= e.cfg.Hours }

// HasPending reports whether the engine still has epochs to dispatch —
// the shared-clock coordinator form of !Done(). Together with
// PeekNextTime and ProcessNext it lets a multi-engine coordinator
// interleave several engines on one simulated clock.
func (e *Engine) HasPending() bool { return !e.Done() }

// PeekNextTime returns the simulated instant of the next pending epoch
// (meaningless once HasPending is false). A coordinator steps every
// engine whose next instant falls inside the current time window.
func (e *Engine) PeekNextTime() time.Time {
	return e.start.Add(time.Duration(e.epoch) * time.Hour)
}

// ProcessNext advances the next pending epoch: Step under its
// shared-clock coordinator name.
func (e *Engine) ProcessNext() error { return e.Step() }

// Finish returns the accumulated result. It may be called mid-run to
// inspect partial state; the engine keeps owning the pointer until Done.
func (e *Engine) Finish() *Result { return e.res }

// Step advances the simulation by one hourly epoch: it runs the phase
// list in order at the epoch's instant, scripted faults first. With
// Config.Obs set, one tracer probe times each phase, and the flight
// recorder files phase k of epoch N with that time under sequence number
// N*len(phases)+k, so a restored run records what an uninterrupted one
// does. Calling Step after Done reports true is an error.
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
			d := e.tracer.End(ph.idx, p)
			if e.recorder != nil {
				e.recorder.Record(phaseNames[ph.idx], now, uint64(epoch*len(e.phases)+k), d)
			}
		}
		if err != nil {
			return fmt.Errorf("sim: epoch %d %s phase: %w", epoch, phaseNames[ph.idx], err)
		}
	}

	e.epoch++
	if e.Done() {
		e.closeFaultAccounting()
	}
	for _, o := range e.observers {
		o.OnEpoch(epoch, now, e.res)
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

// phaseFaults applies the scripted faults due this epoch, in the queue's
// (due instant, script order). With the flight recorder on, each is
// recorded under its own kind (crash, recover, ...) — the events a
// post-mortem is usually after — with its index in FaultScript.Expand as
// sequence number.
func (e *Engine) phaseFaults(now time.Time) error {
	for sf, seq, ok := e.faultq.PopDue(now); ok; sf, seq, ok = e.faultq.PopDue(now) {
		if e.recorder == nil {
			if err := e.applyFault(sf.Fault, now); err != nil {
				return err
			}
			continue
		}
		t0 := time.Now() //detlint:wallclock telemetry: fault latency feeds the flight recorder, never simulation state
		err := e.applyFault(sf.Fault, now)
		//detlint:wallclock telemetry: fault latency feeds the flight recorder, never simulation state
		e.recorder.Record(string(sf.Fault.Kind), sf.At, uint64(seq), int64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseCarbonTick starts the epoch's carbon clock: the zone reads move to
// this epoch's trace index (zoneTrace.off + tick) and the per-zone
// forecast and intensity memos are invalidated (generation bump).
func (e *Engine) phaseCarbonTick(time.Time) error {
	e.tick = e.epoch
	e.zoneGen++
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
	if (due || force) && len(e.live) > 0 {
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

// stepDepartures releases apps whose lifetime ended before this epoch,
// compacting the survivors in place: each moves at most once, and only
// once an earlier app has departed.
func (e *Engine) stepDepartures(epoch int) {
	n := 0
	for i := range e.live {
		a := &e.live[i]
		if a.expires > epoch {
			if n != i {
				e.live[n] = *a
			}
			n++
			continue
		}
		srv := &e.servers[a.srv]
		srv.used = srv.used.Sub(a.demand)
		if srv.used.Dominant(srv.cap) <= 0 && !e.cfg.ServersAlwaysOn {
			srv.on = false
		}
	}
	e.live = e.live[:n]
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
		model := e.cfg.Model
		if len(e.cfg.Models) > 0 {
			model = e.cfg.Models[e.rng.Intn(len(e.cfg.Models))]
		}
		e.pending = append(e.pending, pendingApp{
			app: placement.App{
				ID:         e.queueID(len(e.pending)),
				Model:      model,
				Source:     e.sites[src].City,
				SLOms:      e.cfg.RTTLimitMs,
				RatePerSec: e.cfg.RatePerSec,
			},
			src:       src,
			expires:   -1,
			evictedAt: -1,
		})
		e.appSeq++
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

// meanForecast memoizes a zone slot's mean forecast within one epoch:
// the forecaster is deterministic, and an epoch can need the same zone
// several times (multi-device sites, redeploy plus placement in one
// epoch). The memo is invalidated by the carbon tick's generation bump,
// so steady-state epochs never allocate for it.
func (e *Engine) meanForecast(slot int) (float64, error) {
	z := &e.zones[slot]
	if z.fcGen == e.zoneGen {
		return z.fc, nil
	}
	v, err := z.MeanForecast(z.off+e.tick, e.horizon)
	if err != nil {
		return 0, err
	}
	// An active forecast-error fault skews the forecast placement sees;
	// accrual still charges the true hourly intensity.
	if f, ok := e.fcErr[z.ID()]; ok {
		v *= f
	}
	z.fc, z.fcGen = v, e.zoneGen
	return v, nil
}

// zoneCISite returns the current (actual, hourly) carbon intensity of a
// site's zone this epoch, memoized per slot like the forecast. Step has
// checked the epoch against every slot's trace span, so the read cannot
// fail.
func (e *Engine) zoneCISite(site int) float64 {
	return e.zoneCI(e.zoneSlotOfSite[site])
}

// zoneCI is zoneCISite by zone slot.
func (e *Engine) zoneCI(slot int) float64 {
	z := &e.zones[slot]
	if z.ciGen != e.zoneGen {
		z.ci, _ = z.At(z.off + e.tick) // in span: checked by Step
		z.ciGen = e.zoneGen
	}
	return z.ci
}

// zoneCIOracle resolves a zone's current intensity for the traffic
// router, which names zones by ID.
func (e *Engine) zoneCIOracle(zone string) float64 {
	return e.zoneCI(e.zoneSlot[zone])
}

// buildProblem assembles the batch's placement problem against the
// current server state through the persistent workspace: intensity and
// capacity are synced, and the matrices are shortlist-backed views.
func (e *Engine) buildProblem(apps []placement.App) (*placement.Problem, error) {
	for j := range e.servers {
		srv := &e.servers[j]
		mean, err := e.meanForecast(e.zoneSlotOfSite[srv.site])
		if err != nil {
			return nil, err
		}
		e.ws.UpdateIntensity(j, mean)
		if srv.down {
			// A crashed server offers no capacity and cannot be woken.
			e.ws.SetServerState(j, cluster.Resources{}, false)
		} else {
			e.ws.SetServerState(j, srv.cap.Sub(srv.used), srv.on)
		}
	}
	return e.ws.Problem(apps)
}

// solveBatch runs one Algorithm 1 invocation — problem assembly, solve,
// telemetry — for both the arrival and redeploy paths. A non-nil warm
// assignment seeds the solver from a previous solution.
func (e *Engine) solveBatch(apps []placement.App, warm *placement.Assignment) (*placement.Problem, *placement.Assignment, error) {
	prob, err := e.buildProblem(apps)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now() //detlint:wallclock telemetry: Result.SolveTime reports solver wall time, not simulated time
	if err := e.solver.SolveInto(&e.asgBuf, prob, e.cfg.Policy, warm); err != nil {
		return nil, nil, err
	}
	e.res.SolveTime += time.Since(t0) //detlint:wallclock telemetry: Result.SolveTime reports solver wall time, not simulated time
	e.res.Batches++
	return prob, &e.asgBuf, nil
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
	prob, asg, err := e.solveBatch(apps, nil)
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
		srv.used = srv.used.Add(prob.Demand[i][j])
		srv.on = true
		expires := epoch + e.cfg.AppLifetimeHours
		if batch[i].expires >= 0 {
			expires = batch[i].expires
		}
		rtt := prob.LatencyMs[i][j]
		e.live = append(e.live, liveApp{
			srv:     j,
			site:    srv.site,
			model:   apps[i].Model,
			mi:      e.pool.model(apps[i].Model),
			device:  srv.device.Name,
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
		e.res.PlacementsByCity.Inc(e.sites[srv.site].City, 1)
		e.res.MonthlyPlacements.Inc(e.cityMonthKey[srv.site][month], 1)
	}
	return nil
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
		for i := range e.live {
			e.res.LoadCI = append(e.res.LoadCI, e.zoneCISite(e.live[i].site))
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
		keep := e.inReqs[:0]
		for _, p := range e.inReqs {
			if p.epoch > epoch {
				keep = append(keep, p)
				continue
			}
			sl.RouteAt(e.gateway, p.n, e.intensityFn)
		}
		e.inReqs = keep
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

// trafficReplicas views the live applications as the routing replica
// pool. Apps sharing a (site, model, device) triple are interchangeable
// to the router — same location, latency, service time, and per-request
// energy — so they aggregate into one replica with their capacities
// summed, in first-occurrence order over e.live (the router's tie-break
// order, which snapshots preserve). Telemetry stays keyed by hosting
// city, so per-replica aggregates stay bounded over year runs.
//
// The triple is looked up, not hashed: the app carries its model's dense
// index and its server the dense index of its (site, device) pair. The
// pair, not the server index, is the key — a scale-out puts several
// servers on one pair, and keying by server would split their replica.
func (e *Engine) trafficReplicas() ([]router.Replica, error) {
	p := &e.pool
	p.buf = p.buf[:0]
	p.gen++
	for i := range e.live {
		a := &e.live[i]
		c := &p.cells[a.mi][e.servers[a.srv].pair]
		if c.gen != p.gen {
			if c.gen == 0 {
				prof, err := energy.ProfileFor(a.model, a.device)
				if err != nil {
					return nil, err
				}
				site := e.sites[a.site]
				c.proto = router.Replica{
					ID:            site.City,
					Loc:           a.site,
					ZoneID:        site.ZoneID,
					ServiceMs:     prof.InferenceMs,
					EnergyPerReqJ: prof.EnergyPerRequestJ(),
				}
			}
			c.gen, c.slot = p.gen, len(p.buf)
			p.buf = append(p.buf, c.proto)
		}
		p.buf[c.slot].CapacityRPS += e.cfg.RatePerSec
	}
	return p.buf, nil
}

// stepAccrual charges every live app's dynamic energy — plus woken
// servers' base power when power management is on — at the hosting zone's
// actual hourly carbon intensity. In the traffic-driven mode the dynamic
// term is load-driven and already accrued by stepTraffic, so only the
// base-power term applies here.
func (e *Engine) stepAccrual(month int) {
	if e.tgen == nil {
		for i := range e.live {
			a := &e.live[i]
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
			if srv.on {
				ci := e.zoneCISite(srv.site)
				kwh := srv.device.IdleW / 1000
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

// redeploy re-places all live applications (the §7 extension). Apps keep
// their previous placement when the solver cannot improve on feasibility;
// relocated apps pay the configured data-movement energy at the
// destination zone's current carbon intensity.
func (e *Engine) redeploy(now time.Time) error {
	// Free every live app's resources so the solver sees the full space.
	e.prevsBuf = e.prevsBuf[:0]
	for i := range e.live {
		a := &e.live[i]
		e.prevsBuf = append(e.prevsBuf, a.srv)
		srv := &e.servers[a.srv]
		srv.used = srv.used.Sub(a.demand)
		if srv.used.Dominant(srv.cap) <= 0 && !e.cfg.ServersAlwaysOn {
			srv.on = false
		}
	}
	prevs := e.prevsBuf

	e.appsBuf = e.appsBuf[:0]
	for i := range e.live {
		a := &e.live[i]
		e.appsBuf = append(e.appsBuf, placement.App{
			ID:         e.queueID(i),
			Model:      a.model,
			Source:     e.sites[a.srcSite].City,
			SLOms:      e.cfg.RTTLimitMs,
			RatePerSec: e.cfg.RatePerSec,
		})
	}
	apps := e.appsBuf
	// Optional warm start (§7 extension knob): seed the solver with the
	// identity placement — each live app on its current server — so local
	// search only pays for what actually moved. Off by default: the
	// warm-seeded local optimum can differ from the cold one, and the
	// paper's redeploy figures are produced cold.
	var warm *placement.Assignment
	if e.cfg.WarmRedeploy {
		e.warmBuf.ServerOf = append(e.warmBuf.ServerOf[:0], prevs...)
		e.warmBuf.PowerOn = e.warmBuf.PowerOn[:0]
		e.warmBuf.Unplaced = nil
		warm = &e.warmBuf
	}
	prob, asg, err := e.solveBatch(apps, warm)
	if err != nil {
		return err
	}

	for i, j := range asg.ServerOf {
		if j < 0 {
			// Infeasible this pass: the app stays where it was.
			a := &e.live[i]
			a.srv = prevs[i]
			srv := &e.servers[a.srv]
			a.site, a.device = srv.site, srv.device.Name
			srv.used = srv.used.Add(a.demand)
			srv.on = true
			continue
		}
		srv := &e.servers[j]
		a := &e.live[i]
		moved := j != prevs[i]
		a.srv = j
		a.site, a.device = srv.site, srv.device.Name
		a.demand = prob.Demand[i][j]
		a.powerW = prob.PowerW[i][j]
		a.rttMs = prob.LatencyMs[i][j]
		srv.used = srv.used.Add(a.demand)
		srv.on = true
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
	return nil
}
