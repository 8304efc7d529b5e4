package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// workload is one set of inputs the benchmark drives. Every workload is
// a closed loop on one goroutine: the next Step/RunRound/HTTP call is
// issued when the previous one returned.
type workload struct {
	name string
	why  string
	// reps is the default number of timed reps of a full run.
	reps int
	run  func(rc *runCtx) (*rep, error)
	// parallel workloads keep every P; the others, driven by one
	// goroutine, run on one.
	parallel bool
}

var workloads = []workload{
	{"cdn_year", "Paper's CDN headline (US+EU x CarbonAware/LatencyAware, 8760 h): per-epoch fixed cost dominates and local search idles, so engine/timeline/view work shows here and search changes must not.", 9, runCDNYear, false},
	{"redeploy_churn", "Solver-bound: 240 h at 120 arrivals/h with a redeploy every 6 h, cold then warm; redeploy solves are ~90% of wall, so construct/search/costMemo changes pay here.", 7, runRedeployChurn, false},
	{"traffic_year", "Router-bound: US year under Steady 700, FlashCrowd 700 and Diurnal 2000 RPS; generator+router are >60% of wall and the shapes hit in-capacity, spill and drop paths.", 7, runTrafficYear, false},
	{"faults_storm", "Placement layer under evictions and invalidations: 4380 h with three rounds of crash, zone outage, degrade, forecast spike and scale-out; only here does costGen advance off the carbon tick.", 9, runFaultsStorm, false},
	{"checkpoint_resume", "Snapshot codec write beside read: EU 4392 h checkpointed after every Step, then decoded mid-run and resumed to the end; nothing else exercises sim/snapshot.go and internal/checkpoint.", 5, runCheckpointResume, false},
	{"sharded_x4", "Four shards with exchange on min(4,GOMAXPROCS) workers over churn+flash-crowd+crash: the only multi-core measurement, bound by barriers, exchange and merge.", 9, runShardedX4, true},
	{"orchestrator_live", "Control plane over real HTTP: deploy x5, place, 24 ticks, three scrapes, delete, 300 times; ticks/s and deploy-to-placed latency are what an operator sees and no simulator workload touches it.", 5, runOrchestratorLive, false},
}

// runCtx is what one rep receives: the generated inputs and, in the
// traced pass, the span recorder.
type runCtx struct {
	world *sim.World
	seed  int64
	quick bool
	// rec is nil in the untraced pass. The traced pass also turns on the
	// program's own tracer (sim.Config.Obs).
	rec *recorder
	// serial forces one shard worker (sharded_x4's warm-up rep, whose
	// digest the parallel reps must reproduce).
	serial bool
}

// hours is the simulated span: the workload's full span, or 48 h under
// -quick.
func (rc *runCtx) hours(full int) int {
	if rc.quick {
		return 48
	}
	return full
}

// check is one correctness assertion of a rep.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// rep is the outcome of driving a workload once.
type rep struct {
	// epochs simulated, and the host time spent driving them; ctor is
	// the time spent in the workload's constructors, which counts into
	// setup_s and not into epochs_per_s.
	epochs     int
	wall, ctor time.Duration
	ctors      int
	// cal runs the reference kernel between the timed operations; wall
	// excludes the time it took (see calib).
	cal     calib
	started time.Time
	calMark time.Duration
	// attempted and failed count operations: Step, RunRound, Tick, HTTP
	// call, checkpoint op.
	attempted, failed int
	checks            []check
	digest            string

	// Simulated outcome.
	carbonG          float64
	placed, unplaced int
	requests, sloMet int64
	solve            time.Duration
	// extra holds the workload-specific end-to-end numbers.
	extra *metrics

	// Traced pass only.
	steps  []time.Duration
	phases *obs.Tracer
	layer  *metrics
	// Host samples gathered in every pass (orchestrator place round
	// trips).
	placeRTT []time.Duration

	states []sim.ResultState
	// hold keeps the engines reachable for the live-heap reading.
	hold []any
}

func newRep() *rep { return &rep{extra: newMetrics(), layer: newMetrics()} }

func (r *rep) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Note = fmt.Sprintf(format, args...)
		r.failed++
	}
	r.attempted++
	r.checks = append(r.checks, c)
}

// start opens a timed region and stop adds it to wall, less the time the
// reference kernel took inside it.
func (r *rep) start() { r.started, r.calMark = time.Now(), r.cal.spent }
func (r *rep) stop()  { r.wall += time.Since(r.started) - (r.cal.spent - r.calMark) }

// ref is the rep's wall time at reference speed.
func (r *rep) ref() float64 { return r.wall.Seconds() / r.cal.slowdown() }

// op counts one operation and passes its error through.
func (r *rep) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// account folds a result into the rep's simulated outcome.
func (r *rep) account(res *sim.Result) {
	r.carbonG += res.CarbonG
	r.placed += res.Placed
	r.unplaced += res.Unplaced
	if t := res.Traffic; t != nil {
		r.requests += t.Requests
		r.sloMet += t.SLOMet
		// Attempt-complete: every offered request was either served (and
		// so has a latency sample) or dropped, and none is counted twice.
		r.check("traffic_attempt_complete", t.Requests > 0 && t.Latency.Count()+t.Dropped == t.Requests && t.SLOMet+t.Dropped <= t.Requests,
			"requests=%d served=%d slo_met=%d dropped=%d", t.Requests, t.Latency.Count(), t.SLOMet, t.Dropped)
	}
}

// seal fingerprints the rep: SHA-256 over every result state in run
// order with the solver's wall time zeroed (the sharded experiment's
// digest recipe).
func (r *rep) seal() (err error) {
	parts := make([]any, len(r.states))
	for i, st := range r.states {
		st.SolveTimeNs = 0
		parts[i] = st
	}
	r.digest, err = digestJSON(parts...)
	return err
}

// digestJSON is the first 8 bytes of the SHA-256 over the parts' JSON
// encodings (maps encode with sorted keys, so equal values hash equal).
func digestJSON(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// tracerOnly is the traced pass's sim.Config.Obs: the phase tracer
// without the flight recorder. The recorder's ring rides in every
// snapshot, so leaving it on made checkpoint_resume's traced rep encode
// larger checkpoints than its untraced reps (49% overhead measured) and
// the phase split stop describing the untraced run.
var tracerOnly = &obs.Config{FlightRecorderEvents: -1}

// newEngine builds an engine under a span, timing the constructor.
func (rc *runCtx) newEngine(r *rep, cfg sim.Config) (*sim.Engine, error) {
	if rc.rec != nil {
		cfg.Obs = tracerOnly
	}
	id := rc.rec.begin("sim.NewEngine")
	t0 := time.Now()
	e, err := sim.NewEngine(cfg, rc.world)
	r.ctor += time.Since(t0)
	r.ctors++
	rc.rec.end(id)
	if err != nil {
		return nil, err
	}
	r.hold = append(r.hold, e)
	return e, nil
}

// drive steps e to the end, one span per Step in the traced pass. after,
// when set, runs after every Step inside the timed region.
func (rc *runCtx) drive(r *rep, e *sim.Engine, after func() error) error {
	first := e.Epoch()
	r.start()
	for !e.Done() {
		id := rc.rec.begin("sim.Step")
		err := r.op(e.Step())
		if rc.rec != nil {
			r.steps = append(r.steps, rc.rec.end(id))
		}
		if err != nil {
			return err
		}
		if after != nil {
			if err := after(); err != nil {
				return err
			}
		}
		r.cal.tick()
	}
	r.stop()
	r.epochs += e.Epoch() - first
	res := e.Finish()
	r.solve += res.SolveTime
	r.states = append(r.states, res.State())
	if tr := e.Tracer(); tr != nil {
		if r.phases == nil {
			r.phases = sim.NewPhaseTracer()
		}
		return r.phases.Merge(tr)
	}
	return nil
}

// runEngine is newEngine + drive.
func (rc *runCtx) runEngine(r *rep, cfg sim.Config) (*sim.Result, error) {
	e, err := rc.newEngine(r, cfg)
	if err != nil {
		return nil, err
	}
	if err := rc.drive(r, e, nil); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

func (rc *runCtx) baseConfig(region carbon.Region, pol placement.Policy, hours int) sim.Config {
	cfg := sim.DefaultConfig(region, pol)
	cfg.Seed = rc.seed
	cfg.Hours = rc.hours(hours)
	return cfg
}

func (rc *runCtx) traffic(scn traffic.Scenario, rps float64) *traffic.Config {
	return &traffic.Config{Seed: rc.seed, Scenario: scn, RPS: rps}
}

func runCDNYear(rc *runCtx) (*rep, error) {
	r := newRep()
	var saving, rttInc []float64
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		aware, err := rc.runEngine(r, rc.baseConfig(region, placement.CarbonAware{}, 8760))
		if err != nil {
			return nil, err
		}
		base, err := rc.runEngine(r, rc.baseConfig(region, placement.LatencyAware{}, 8760))
		if err != nil {
			return nil, err
		}
		// Only the carbon-aware runs count into carbon_kg and
		// unplaced_pct; the latency-aware runs are the comparison base.
		r.account(aware)
		r.check("carbon_aware_below_baseline_"+region.String(), aware.CarbonG < base.CarbonG,
			"CarbonAware %.1f g, LatencyAware %.1f g", aware.CarbonG, base.CarbonG)
		s := sim.CompareToBaseline(aware, base)
		saving = append(saving, s.CarbonSavingPct)
		rttInc = append(rttInc, s.LatencyIncreaseMs/2)
		r.extra.simulated("carbon_savings_pct."+region.String(), "%", s.CarbonSavingPct)
		r.extra.simulated("rtt_increase_ms."+region.String(), "ms", s.LatencyIncreaseMs/2)
	}
	r.extra.simulated("carbon_savings_pct", "%", (saving[0]+saving[1])/2)
	r.extra.simulated("rtt_increase_ms", "ms", max(rttInc[0], rttInc[1]))
	return r, r.seal()
}

// churnConfig is the solver-bound shape redeploy_churn and sharded_x4
// share.
func (rc *runCtx) churnConfig(hours int) sim.Config {
	cfg := rc.baseConfig(carbon.RegionUS, placement.CarbonAware{}, hours)
	cfg.ArrivalsPerHour = 120
	cfg.AppLifetimeHours = 72
	cfg.RedeployEveryHours = 6
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name, energy.OrinNano.Name}
	return cfg
}

func runRedeployChurn(rc *runCtx) (*rep, error) {
	r := newRep()
	for _, warm := range []bool{false, true} {
		cfg := rc.churnConfig(240)
		cfg.WarmRedeploy = warm
		res, err := rc.runEngine(r, cfg)
		if err != nil {
			return nil, err
		}
		r.account(res)
	}
	return r, r.seal()
}

func runTrafficYear(rc *runCtx) (*rep, error) {
	r := newRep()
	for _, tc := range []*traffic.Config{
		rc.traffic(traffic.Steady, 700),
		rc.traffic(traffic.FlashCrowd, 700),
		rc.traffic(traffic.Diurnal, 2000),
	} {
		cfg := rc.baseConfig(carbon.RegionUS, placement.CarbonAware{}, 8760)
		cfg.Traffic = tc
		res, err := rc.runEngine(r, cfg)
		if err != nil {
			return nil, err
		}
		r.account(res)
	}
	return r, r.seal()
}

// heaviestSites orders the region's site cities by demand weight,
// heaviest first.
func heaviestSites(w *sim.World, cfg sim.Config) (cities, zones []string) {
	sites := w.Dep.InRegion(cfg.Region)
	wts := sim.ScenarioWeights(sites, cfg.Demand)
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return wts[order[a]] > wts[order[b]] })
	for _, i := range order {
		cities = append(cities, sites[i].City)
		zones = append(zones, sites[i].ZoneID)
	}
	return cities, zones
}

// stormRounds is deliberately three: see README "faults_storm".
const stormRounds = 3

// stormScript scripts stormRounds rounds, each a site crash, a zone
// outage, a 0.3x degrade, a 4x forecast-error spike and a two-server
// scale-out, on sites rotating through the region's heaviest. Offsets
// and durations are stated for the full 4380 h span and scale with
// shorter ones.
func stormScript(w *sim.World, cfg sim.Config) *events.FaultScript {
	cities, zones := heaviestSites(w, cfg)
	period := cfg.Hours / stormRounds
	h := func(full int) time.Duration {
		return time.Duration(max(1, full*period/1460)) * time.Hour
	}
	s := &events.FaultScript{}
	for round := 0; round < stormRounds; round++ {
		at := time.Duration(round*period) * time.Hour
		a, b, c := round%len(cities), (round+1)%len(cities), (round+2)%len(cities)
		s.Faults = append(s.Faults,
			events.Fault{At: at + h(100), Kind: events.FaultCrash, Site: cities[a], For: h(48)},
			events.Fault{At: at + h(300), Kind: events.FaultCrash, Zone: zones[b], For: h(24)},
			events.Fault{At: at + h(500), Kind: events.FaultDegrade, Site: cities[c], Factor: 0.3, For: h(96)},
			events.Fault{At: at + h(700), Kind: events.FaultForecastError, Zone: zones[a], Factor: 4, For: h(72)},
			events.Fault{At: at + h(900), Kind: events.FaultScaleOut, Site: cities[a], Device: energy.A2.Name,
				CapacityMilli: cfg.CapacityMilliPerSite, Count: 2},
		)
	}
	return s
}

func runFaultsStorm(rc *runCtx) (*rep, error) {
	r := newRep()
	cfg := rc.baseConfig(carbon.RegionUS, placement.CarbonAware{}, 4380)
	cfg.ArrivalsPerHour = 40
	cfg.AppLifetimeHours = 48
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name}
	cfg.Traffic = rc.traffic(traffic.Steady, 5000)
	cfg.Faults = stormScript(rc.world, cfg)
	res, err := rc.runEngine(r, cfg)
	if err != nil {
		return nil, err
	}
	r.account(res)
	r.check("faults_applied", res.Faults != nil && res.Faults.Evictions > 0 && res.Faults.Evictions == res.Faults.Replaced+res.Faults.Lost,
		"fault stats %+v", res.Faults)
	return r, r.seal()
}

func runCheckpointResume(rc *runCtx) (*rep, error) {
	r := newRep()
	cfg := rc.baseConfig(carbon.RegionEurope, placement.CarbonAware{}, 4392)
	cfg.RedeployEveryHours = 24
	cfg.MigrationDataMB, cfg.MigrationJPerMB = 500, 0.2
	e, err := rc.newEngine(r, cfg)
	if err != nil {
		return nil, err
	}
	var (
		buf      bytes.Buffer
		mid      []byte
		midEpoch = cfg.Hours / 2
		snapT    time.Duration
		encT     time.Duration
		encBytes int64
	)
	err = rc.drive(r, e, func() error {
		id := rc.rec.begin("sim.Snapshot")
		snap := e.Snapshot()
		snapT += rc.rec.end(id)
		buf.Reset()
		id = rc.rec.begin("checkpoint.Encode")
		err := r.op(checkpoint.Encode(&buf, "engine", snap))
		encT += rc.rec.end(id)
		encBytes += int64(buf.Len())
		if e.Epoch() == midEpoch {
			mid = append([]byte(nil), buf.Bytes()...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	full := e.Finish()
	r.account(full)

	// The read direction: decode the mid-run envelope off the wire,
	// restore, and drive the restored engine to the end.
	r.start()
	var snap sim.Snapshot
	id := rc.rec.begin("checkpoint.Decode")
	err = r.op(checkpoint.Decode(bytes.NewReader(mid), "engine", &snap))
	decT := rc.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rc.rec.begin("sim.NewEngineFrom")
	restored, err := sim.NewEngineFrom(cfg, rc.world, &snap)
	restoreT := rc.rec.end(id)
	if r.op(err) != nil {
		return nil, err
	}
	r.stop()
	r.hold = append(r.hold, restored)
	if err := rc.drive(r, restored, nil); err != nil {
		return nil, err
	}
	a, b := r.states[0], r.states[1]
	a.SolveTimeNs, b.SolveTimeNs = 0, 0
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	r.check("resume_identical", bytes.Equal(ab, bb), "run restored at epoch %d diverged from the uninterrupted one", snap.Epoch)

	if rc.rec != nil {
		n := float64(cfg.Hours)
		r.layer.host("checkpoint.snapshot_us", "us", us(snapT)/n)
		r.layer.host("checkpoint.encode_mb_per_s", "MB/s", float64(encBytes)/(1<<20)/encT.Seconds())
		r.layer.host("checkpoint.decode_mb_per_s", "MB/s", float64(len(mid))/(1<<20)/decT.Seconds())
		r.layer.host("checkpoint.restore_ms", "ms", ms(restoreT))
		r.layer.count("checkpoint.bytes", "B", float64(buf.Len()))
		r.layer.host("checkpoint.write_share_pct", "%", pct(float64(snapT+encT), float64(r.wall)))
	}
	return r, r.seal()
}
