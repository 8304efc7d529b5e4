package sim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/router"
)

// Snapshot is the full dynamic state of an Engine at an epoch boundary:
// everything Step mutates, and nothing derivable from (Config, World).
// It is plain data — JSON-serializable, no closures — so a checkpoint
// file survives process restarts. Neither the phase list nor the fault
// queue is serialized: restore rebuilds both from the config, and drops
// the faults the snapshotted run had already applied.
//
// The proof obligation (TestSnapshotRestoreEquivalence): for any epoch
// N, run-to-N + Snapshot + NewEngineFrom + run-to-end produces a Result
// byte-identical to an uninterrupted run, in every mode.
type Snapshot struct {
	// ConfigSig fingerprints the Config the snapshot was taken under;
	// NewEngineFrom rejects a snapshot whose signature does not match the
	// config it is being restored into.
	ConfigSig string `json:"config_sig"`
	// Epoch is the index of the next epoch Step would execute.
	Epoch int `json:"epoch"`
	// RNG is the arrival stream position (rng.Source state).
	RNG uint64 `json:"rng"`

	AppSeq        int                `json:"app_seq"`
	EvictSeq      int                `json:"evict_seq"`
	ForceRedeploy bool               `json:"force_redeploy,omitempty"`
	DownCount     int                `json:"down_count,omitempty"`
	FcErr         map[string]float64 `json:"fc_err,omitempty"`

	Servers []ServerSnap  `json:"servers"`
	Live    []LiveAppSnap `json:"live"`
	Pending []PendingSnap `json:"pending,omitempty"`

	// Cross-shard exchange mailboxes (empty outside coordinator runs):
	// the outbox of forwarded-but-undrained arrivals and the inboxes of
	// injected work not yet due.
	Outbox []ForwardedApp `json:"outbox,omitempty"`
	InApps []InboxAppSnap `json:"inbox_apps,omitempty"`
	InReqs []InboxReqSnap `json:"inbox_reqs,omitempty"`

	Result ResultState `json:"result"`

	// Recorder carries the flight recorder's ring (Config.Obs runs only)
	// so a post-mortem on a restored checkpoint still sees the events
	// leading up to it. Pure telemetry: restoring it never changes the
	// trajectory.
	Recorder *obs.RecorderState `json:"recorder,omitempty"`
}

// ServerSnap is one aggregate site server's dynamic state. Site, Device,
// and BaseCap re-create servers added by scale-out faults (indices past
// the config's initial fleet); for initial servers they must match the
// config-derived values.
type ServerSnap struct {
	Site    int               `json:"site"`
	Device  string            `json:"device"`
	BaseCap cluster.Resources `json:"base_cap"`
	Cap     cluster.Resources `json:"cap"`
	Used    cluster.Resources `json:"used"`
	On      bool              `json:"on"`
	Down    bool              `json:"down,omitempty"`
}

// LiveAppSnap is one committed application.
type LiveAppSnap struct {
	Srv     int     `json:"srv"`
	Site    int     `json:"site"`
	Model   string  `json:"model"`
	Device  string  `json:"device"`
	PowerW  float64 `json:"power_w"`
	RTTMs   float64 `json:"rtt_ms"`
	Expires int     `json:"expires"`
	SrcSite int     `json:"src_site"`
}

// PendingSnap is one backlog entry awaiting placement.
type PendingSnap struct {
	App       placement.App `json:"app"`
	Src       int           `json:"src"`
	Expires   int           `json:"expires"`
	EvictedAt int           `json:"evicted_at"`
	Injected  bool          `json:"injected,omitempty"`
}

// InboxAppSnap is one coordinator-injected arrival awaiting its epoch.
type InboxAppSnap struct {
	Epoch int    `json:"epoch"`
	Model string `json:"model"`
}

// InboxReqSnap is coordinator-injected request volume awaiting its epoch.
type InboxReqSnap struct {
	Epoch int   `json:"epoch"`
	N     int64 `json:"n"`
}

// ResultState is the serializable form of a Result. Maps are encoded
// with sorted keys by encoding/json, so two equal states encode to
// identical bytes — the property the resume-equivalence tests and the
// sweep journal compare on.
type ResultState struct {
	CarbonG           float64                  `json:"carbon_g"`
	EnergyKWh         float64                  `json:"energy_kwh"`
	Latency           metrics.SummaryState     `json:"latency"`
	MonthlyCarbonG    [12]float64              `json:"monthly_carbon_g"`
	MonthlyLatency    [12]metrics.SummaryState `json:"monthly_latency"`
	PlacementsByCity  map[string]int64         `json:"placements_by_city"`
	MonthlyPlacements map[string]int64         `json:"monthly_placements"`
	LoadCI            []float64                `json:"load_ci,omitempty"`
	Placed            int                      `json:"placed"`
	Unplaced          int                      `json:"unplaced"`
	Migrations        int                      `json:"migrations"`
	MigrationKWh      float64                  `json:"migration_kwh"`
	MigrationCarbonG  float64                  `json:"migration_carbon_g"`
	SolveTimeNs       int64                    `json:"solve_time_ns"`
	Batches           int                      `json:"batches"`
	Faults            *FaultStats              `json:"faults,omitempty"`
	Traffic           *router.StatsState       `json:"traffic,omitempty"`
}

// State exports the result's accumulator.
func (r *Result) State() ResultState {
	st := ResultState{
		CarbonG:           r.CarbonG,
		EnergyKWh:         r.EnergyKWh,
		Latency:           r.Latency.State(),
		MonthlyCarbonG:    r.MonthlyCarbonG,
		PlacementsByCity:  r.PlacementsByCity.State(),
		MonthlyPlacements: r.MonthlyPlacements.State(),
		LoadCI:            append([]float64(nil), r.LoadCI...),
		Placed:            r.Placed,
		Unplaced:          r.Unplaced,
		Migrations:        r.Migrations,
		MigrationKWh:      r.MigrationKWh,
		MigrationCarbonG:  r.MigrationCarbonG,
		SolveTimeNs:       int64(r.SolveTime),
		Batches:           r.Batches,
	}
	for m := range r.MonthlyLatency {
		st.MonthlyLatency[m] = r.MonthlyLatency[m].State()
	}
	if r.Faults != nil {
		fs := *r.Faults
		st.Faults = &fs
	}
	if r.Traffic != nil {
		ts := r.Traffic.State()
		st.Traffic = &ts
	}
	return st
}

// Restore rebuilds a Result from an exported state. The Traffic stats
// are not restored here: they live in the engine's router (see
// NewEngineFrom), and a standalone restored Result carries them as a
// detached accumulator.
func (st ResultState) Restore() (*Result, error) {
	r := &Result{
		CarbonG:           st.CarbonG,
		EnergyKWh:         st.EnergyKWh,
		Latency:           metrics.SummaryFromState(st.Latency),
		MonthlyCarbonG:    st.MonthlyCarbonG,
		PlacementsByCity:  metrics.CounterFromState(st.PlacementsByCity),
		MonthlyPlacements: metrics.CounterFromState(st.MonthlyPlacements),
		LoadCI:            append([]float64(nil), st.LoadCI...),
		Placed:            st.Placed,
		Unplaced:          st.Unplaced,
		Migrations:        st.Migrations,
		MigrationKWh:      st.MigrationKWh,
		MigrationCarbonG:  st.MigrationCarbonG,
		SolveTime:         time.Duration(st.SolveTimeNs),
		Batches:           st.Batches,
	}
	for m := range st.MonthlyLatency {
		r.MonthlyLatency[m] = metrics.SummaryFromState(st.MonthlyLatency[m])
	}
	if st.Faults != nil {
		fs := *st.Faults
		r.Faults = &fs
	}
	if st.Traffic != nil {
		lat, err := metrics.SketchFromState(st.Traffic.Latency)
		if err != nil {
			return nil, fmt.Errorf("sim: restoring traffic latency: %w", err)
		}
		r.Traffic = &router.Stats{
			Requests:       st.Traffic.Requests,
			SLOMet:         st.Traffic.SLOMet,
			Spilled:        st.Traffic.Spilled,
			Dropped:        st.Traffic.Dropped,
			OverloadSlices: st.Traffic.OverloadSlices,
			Latency:        lat,
			EnergyKWh:      st.Traffic.EnergyKWh,
			CarbonG:        st.Traffic.CarbonG,
			ByReplica:      metrics.CounterFromState(st.Traffic.ByReplica),
		}
	}
	return r, nil
}

// ConfigSig fingerprints the fields of a Config that determine a run's
// trajectory. Interface and pointer fields are rendered by value so the
// signature is stable across processes. Obs is deliberately excluded:
// tracing never changes the trajectory, so a checkpoint taken with
// observability on restores cleanly into a run with it off (and vice
// versa), and sweep journals stay valid across obs toggles.
func ConfigSig(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d region=%v sites=%v forward=%t policy=%T%+v rtt=%g hours=%d start=%d arrivals=%g life=%d",
		cfg.Seed, cfg.Region, cfg.Sites, cfg.ForwardUnplaced, cfg.Policy, cfg.Policy, cfg.RTTLimitMs,
		cfg.Hours, cfg.StartHour, cfg.ArrivalsPerHour, cfg.AppLifetimeHours)
	fmt.Fprintf(&b, " model=%s models=%v rate=%g devices=%v cap=%g demand=%v capacity=%v alwayson=%t",
		cfg.Model, cfg.Models, cfg.RatePerSec, cfg.Devices, cfg.CapacityMilliPerSite,
		cfg.Demand, cfg.Capacity, cfg.ServersAlwaysOn)
	fmt.Fprintf(&b, " horizon=%d forecaster=%T%+v batch=%d loadci=%t redeploy=%d migmb=%g migj=%g warm=%t",
		cfg.ForecastHorizonHours, cfg.Forecaster, cfg.Forecaster, cfg.BatchHours, cfg.CollectLoadCI,
		cfg.RedeployEveryHours, cfg.MigrationDataMB, cfg.MigrationJPerMB, cfg.WarmRedeploy)
	if cfg.Traffic != nil {
		fmt.Fprintf(&b, " traffic=%+v", *cfg.Traffic)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(&b, " faults=%+v", *cfg.Faults)
	}
	return b.String()
}

// Snapshot captures the engine's full dynamic state. It must be called
// between Steps (an epoch boundary) — the only instants at which no
// epoch is partly run. The returned snapshot
// shares no mutable state with the engine.
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{
		ConfigSig:     ConfigSig(e.cfg),
		Epoch:         e.epoch,
		RNG:           e.rngSrc.State(),
		AppSeq:        e.appSeq,
		EvictSeq:      e.evictSeq,
		ForceRedeploy: e.forceRedeploy,
		DownCount:     e.downCount,
		Result:        e.res.State(),
	}
	if len(e.fcErr) > 0 {
		snap.FcErr = make(map[string]float64, len(e.fcErr))
		for z, f := range e.fcErr {
			snap.FcErr[z] = f
		}
	}
	snap.Servers = make([]ServerSnap, len(e.servers))
	for j, srv := range e.servers {
		snap.Servers[j] = ServerSnap{
			Site:    srv.site,
			Device:  srv.device.Name,
			BaseCap: srv.baseCap,
			Cap:     srv.cap,
			Used:    srv.used,
			On:      srv.on,
			Down:    srv.down,
		}
	}
	snap.Live = make([]LiveAppSnap, len(e.live))
	for i, a := range e.live {
		snap.Live[i] = LiveAppSnap{
			Srv: a.srv, Site: a.site, Model: a.model, Device: a.device,
			PowerW: a.powerW, RTTMs: a.rttMs, Expires: a.expires, SrcSite: a.srcSite,
		}
	}
	if len(e.pending) > 0 {
		snap.Pending = make([]PendingSnap, len(e.pending))
		for i, p := range e.pending {
			snap.Pending[i] = PendingSnap{App: p.app, Src: p.src, Expires: p.expires, EvictedAt: p.evictedAt, Injected: p.injected}
		}
	}
	if len(e.outbox) > 0 {
		snap.Outbox = append([]ForwardedApp(nil), e.outbox...)
	}
	for _, p := range e.inApps {
		snap.InApps = append(snap.InApps, InboxAppSnap{Epoch: p.epoch, Model: p.model})
	}
	for _, p := range e.inReqs {
		snap.InReqs = append(snap.InReqs, InboxReqSnap{Epoch: p.epoch, N: p.n})
	}
	if e.recorder != nil {
		st := e.recorder.State()
		snap.Recorder = &st
	}
	return snap
}

// NewEngineFrom rebuilds an engine from a snapshot taken under the same
// (Config, World): static state is reconstructed from the config exactly
// as NewEngine does (the phase list and the fault queue included),
// dynamic state is loaded from the snapshot, and the faults the
// snapshotted run had already applied leave the queue. Stepping the
// restored engine to completion is byte-identical to never having
// stopped.
func NewEngineFrom(cfg Config, w *World, snap *Snapshot) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("sim: nil snapshot")
	}
	if sig := ConfigSig(cfg); snap.ConfigSig != sig {
		return nil, fmt.Errorf("sim: snapshot config signature mismatch:\n  snapshot: %s\n  restore:  %s", snap.ConfigSig, sig)
	}
	if snap.Epoch < 0 || snap.Epoch > cfg.Hours {
		return nil, fmt.Errorf("sim: snapshot epoch %d outside run span [0, %d]", snap.Epoch, cfg.Hours)
	}
	e, err := NewEngine(cfg, w)
	if err != nil {
		return nil, err
	}
	if len(snap.Servers) < len(e.servers) {
		return nil, fmt.Errorf("sim: snapshot has %d servers, config builds %d", len(snap.Servers), len(e.servers))
	}

	// Servers: the initial fleet is overlaid in place; servers past it
	// were added by scale-out faults and are re-created (and re-registered
	// with the placement workspace, keeping index alignment).
	for j, ss := range snap.Servers {
		if ss.Site < 0 || ss.Site >= len(e.sites) {
			return nil, fmt.Errorf("sim: snapshot server %d references site %d of %d", j, ss.Site, len(e.sites))
		}
		if j < len(e.servers) {
			srv := &e.servers[j]
			if srv.site != ss.Site || srv.device.Name != ss.Device {
				return nil, fmt.Errorf("sim: snapshot server %d is %s@site%d, config builds %s@site%d",
					j, ss.Device, ss.Site, srv.device.Name, srv.site)
			}
			srv.baseCap, srv.cap, srv.used = ss.BaseCap, ss.Cap, ss.Used
			srv.on, srv.down = ss.On, ss.Down
			continue
		}
		dev, err := energy.DeviceByName(ss.Device)
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot server %d: %w", j, err)
		}
		e.servers = append(e.servers, siteServer{
			site:    ss.Site,
			pair:    e.pool.pair(ss.Site, dev.Name),
			device:  dev,
			baseCap: ss.BaseCap,
			cap:     ss.Cap,
			used:    ss.Used,
			on:      ss.On,
			down:    ss.Down,
		})
		if err := e.ws.AddServers(placement.Server{
			ID:         fmt.Sprintf("srv-%d", j),
			DC:         e.sites[ss.Site].City,
			Device:     dev.Name,
			BasePowerW: dev.IdleW,
			PoweredOn:  ss.On,
			Free:       ss.Cap.Sub(ss.Used),
		}); err != nil {
			return nil, err
		}
	}

	e.live = make([]liveApp, len(snap.Live))
	for i, ls := range snap.Live {
		if ls.Srv < 0 || ls.Srv >= len(e.servers) {
			return nil, fmt.Errorf("sim: snapshot live app %d references server %d of %d", i, ls.Srv, len(e.servers))
		}
		if srv := &e.servers[ls.Srv]; ls.Site != srv.site || ls.Device != srv.device.Name {
			return nil, fmt.Errorf("sim: snapshot live app %d is on %s@site%d, its server %d is %s@site%d",
				i, ls.Device, ls.Site, ls.Srv, srv.device.Name, srv.site)
		}
		// The source site is read back when the app is redeployed or
		// evicted.
		if ls.SrcSite < 0 || ls.SrcSite >= len(e.sites) {
			return nil, fmt.Errorf("sim: snapshot live app %d references source site %d of %d", i, ls.SrcSite, len(e.sites))
		}
		// The committed demand is the placement cell of (model, device) at
		// the config's rate — re-derived, not stored, so checkpoints keep
		// their layout.
		prof, err := energy.ProfileFor(ls.Model, ls.Device)
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot live app %d: %w", i, err)
		}
		demand, _, ok := placement.Coefficients(prof, cfg.RatePerSec)
		if !ok {
			return nil, fmt.Errorf("sim: snapshot live app %d: %s cannot host %s at %g req/s", i, ls.Device, ls.Model, cfg.RatePerSec)
		}
		e.live[i] = liveApp{
			srv: ls.Srv, site: ls.Site, model: ls.Model, mi: e.pool.model(ls.Model), device: ls.Device,
			demand: demand, powerW: ls.PowerW, rttMs: ls.RTTMs, expires: ls.Expires, srcSite: ls.SrcSite,
		}
	}
	e.pending = nil
	for i, ps := range snap.Pending {
		// A pending app becomes a live app with this source site when
		// placed; every backlog entry is sourced at its site's city.
		if ps.Src < 0 || ps.Src >= len(e.sites) {
			return nil, fmt.Errorf("sim: snapshot pending app %d references source site %d of %d", i, ps.Src, len(e.sites))
		}
		if city := e.sites[ps.Src].City; ps.App.Source != city {
			return nil, fmt.Errorf("sim: snapshot pending app %d is sourced at %q, its source site %d is %q", i, ps.App.Source, ps.Src, city)
		}
		if ps.EvictedAt >= 0 && cfg.Faults == nil {
			return nil, fmt.Errorf("sim: snapshot pending app %d was evicted at epoch %d, but the config has no fault script", i, ps.EvictedAt)
		}
		e.pending = append(e.pending, pendingApp{app: ps.App, src: ps.Src, expires: ps.Expires, evictedAt: ps.EvictedAt, injected: ps.Injected})
	}
	e.outbox = append([]ForwardedApp(nil), snap.Outbox...)
	e.inApps, e.inReqs = nil, nil
	for _, ps := range snap.InApps {
		e.inApps = append(e.inApps, inboxApp{epoch: ps.Epoch, model: ps.Model})
	}
	for _, ps := range snap.InReqs {
		e.inReqs = append(e.inReqs, inboxReq{epoch: ps.Epoch, n: ps.N})
	}

	e.rngSrc.Restore(snap.RNG)
	e.appSeq, e.evictSeq = snap.AppSeq, snap.EvictSeq
	e.forceRedeploy, e.downCount = snap.ForceRedeploy, snap.DownCount
	e.fcErr = nil
	if cfg.Faults != nil || len(snap.FcErr) > 0 {
		e.fcErr = map[string]float64{}
	}
	for z, f := range snap.FcErr {
		e.fcErr[z] = f
	}

	// Result: rebuild the accumulator, then re-attach the live traffic
	// stats to the engine's router so stepTraffic keeps accruing into the
	// restored totals.
	res, err := snap.Result.Restore()
	if err != nil {
		return nil, err
	}
	e.res = res
	if e.trouter != nil {
		if snap.Result.Traffic == nil {
			return nil, fmt.Errorf("sim: traffic mode restore needs traffic stats in the snapshot")
		}
		if err := e.trouter.RestoreStats(*snap.Result.Traffic); err != nil {
			return nil, err
		}
		e.res.Traffic = e.trouter.Stats()
	}
	if cfg.Faults != nil && e.res.Faults == nil {
		e.res.Faults = &FaultStats{}
	}

	// NewEngine queued the whole script. The last completed epoch applied
	// every fault due at or before its instant: pop those unapplied, so
	// the rest keep their FaultScript.Expand index as pop ordinal.
	e.epoch = snap.Epoch
	if snap.Epoch > 0 {
		applied := e.start.Add(time.Duration(snap.Epoch-1) * time.Hour)
		for {
			if _, _, ok := e.faultq.PopDue(applied); !ok {
				break
			}
		}
	}
	// Flight recorder: reload the snapshotted ring when the restoring
	// config also enables the recorder (cfg.Obs drives e.recorder's
	// existence; the snapshot only refills it).
	if e.recorder != nil && snap.Recorder != nil {
		e.recorder = obs.RecorderFromState(*snap.Recorder)
	}
	return e, nil
}
