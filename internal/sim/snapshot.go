package sim

import (
	"fmt"
	"maps"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/router"
)

// Snapshot is the full dynamic state of an Engine at an epoch boundary:
// everything Step mutates, and nothing derivable from (Config, World).
// Its exported fields are plain data — JSON-serializable, no closures —
// so a checkpoint file survives process restarts. A snapshot the engine
// took also carries, unexported, the engine's row cache and the table
// position of its first live app: AppendJSON looks a server row up in
// the cache by its index and a live-app entry by its table position, and
// copies its bytes only when the row equals, bit for bit, the value
// those bytes were rendered from, so a decoded or hand-built snapshot,
// which has neither, encodes to the same bytes. Neither the phase list
// nor the fault queue is serialized: restore rebuilds both from the
// config, and drops the faults the snapshotted run had already applied.
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

	ForceRedeploy bool               `json:"force_redeploy,omitempty"`
	FcErr         map[string]float64 `json:"fc_err,omitempty"`

	Servers []ServerSnap  `json:"servers"`
	Live    []LiveAppSnap `json:"live"`
	Pending []PendingSnap `json:"pending,omitempty"`

	// Cross-shard exchange mailboxes (empty outside coordinator runs):
	// the outbox of forwarded-but-undrained arrivals, the inboxes of
	// injected work not yet due, and the injected requests dropped.
	Outbox    []ForwardedApp `json:"outbox,omitempty"`
	InApps    []InboxAppSnap `json:"inbox_apps,omitempty"`
	InReqs    []InboxReqSnap `json:"inbox_reqs,omitempty"`
	InDropped int64          `json:"inbox_dropped,omitempty"`

	Result ResultState `json:"result"`

	// rows is the engine's encoding cache, lent by Engine.Snapshot (nil
	// in a snapshot built any other way), and liveBase the table position
	// of Live[0], the number of apps the engine ever popped from its
	// table's head (0 in a snapshot built any other way); see rowCache.
	rows     *rowCache
	liveBase int
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
// with sorted keys by encoding/json, and the placement counts are lists
// kept sorted by label that encode as those maps would, so two equal
// states encode to identical bytes — the property the resume-equivalence
// tests and the sweep journal compare on.
type ResultState struct {
	CarbonG           float64                  `json:"carbon_g"`
	EnergyKWh         float64                  `json:"energy_kwh"`
	Latency           metrics.SummaryState     `json:"latency"`
	MonthlyCarbonG    [12]float64              `json:"monthly_carbon_g"`
	MonthlyLatency    [12]metrics.SummaryState `json:"monthly_latency"`
	PlacementsByCity  metrics.Counts           `json:"placements_by_city"`
	MonthlyPlacements metrics.Counts           `json:"monthly_placements"`
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

// State exports the result's accumulator. The placement counts are
// copied, their labels shared (metrics.Counts.Clone).
func (r *Result) State() ResultState {
	st := ResultState{
		CarbonG:           r.CarbonG,
		EnergyKWh:         r.EnergyKWh,
		Latency:           r.Latency.State(),
		MonthlyCarbonG:    r.MonthlyCarbonG,
		PlacementsByCity:  r.PlacementsByCity.Clone(),
		MonthlyPlacements: r.MonthlyPlacements.Clone(),
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

// Restore rebuilds a Result from an exported state. It refuses placement
// counts that do not conserve Placed (checkPlacements). The Traffic stats
// are not restored here: they live in the engine's router (see
// NewEngineFrom), and a standalone restored Result carries them as a
// detached accumulator.
func (st ResultState) Restore() (*Result, error) {
	if err := st.checkPlacements(); err != nil {
		return nil, err
	}
	// The count lists are added to empty ones: owned and non-nil, as an
	// engine's are.
	r := &Result{
		CarbonG:           st.CarbonG,
		EnergyKWh:         st.EnergyKWh,
		Latency:           metrics.SummaryFromState(st.Latency),
		MonthlyCarbonG:    st.MonthlyCarbonG,
		PlacementsByCity:  metrics.NewCounts().Plus(st.PlacementsByCity),
		MonthlyPlacements: metrics.NewCounts().Plus(st.MonthlyPlacements),
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
		ts, err := router.StatsFromState(*st.Traffic, false)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		r.Traffic = ts
	}
	return r, nil
}

// checkPlacements returns an error unless st's placement counts conserve
// its placements: every month label is "city/m" with m in 0–11 and a
// count of at least 0, each city counts the sum of its months, and the
// months sum to Placed.
func (st *ResultState) checkPlacements() error {
	var fromMonths metrics.Counts
	var total int64
	for label, n := range st.MonthlyPlacements.All() {
		i := strings.LastIndexByte(label, '/')
		if m, err := strconv.Atoi(label[i+1:]); n < 0 || i < 0 || err != nil || m < 0 || m > 11 || strconv.Itoa(m) != label[i+1:] {
			return fmt.Errorf("sim: result counts %d placements under month label %q", n, label)
		}
		fromMonths.Add(label[:i], n)
		total += n
	}
	cities, months := maps.Collect(st.PlacementsByCity.All()), maps.Collect(fromMonths.All())
	if !maps.Equal(cities, months) || total != int64(st.Placed) {
		return fmt.Errorf("sim: result counts placements by city %v and %v over their months, %d in all; Placed is %d", cities, months, total, st.Placed)
	}
	return nil
}

// ConfigSig fingerprints the fields of a Config that determine a run's
// trajectory. Interface and pointer fields are rendered by value so the
// signature is stable across processes, and the policy and forecaster
// without their unexported fields (exported): a policy's caches change as
// it solves, and must not move the signature of the config that stepped
// it. Obs is deliberately excluded:
// tracing never changes the trajectory, so a checkpoint taken with
// observability on restores cleanly into a run with it off (and vice
// versa), and sweep journals stay valid across obs toggles. start=0 and
// horizon=24 render values that were once Config fields, so signatures
// recorded while they were stay valid.
func ConfigSig(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d region=%v sites=%v forward=%t policy=%T%+v rtt=%g hours=%d start=0 arrivals=%g life=%d",
		cfg.Seed, cfg.Region, cfg.Sites, cfg.ForwardUnplaced, cfg.Policy, exported(cfg.Policy), cfg.RTTLimitMs,
		cfg.Hours, cfg.ArrivalsPerHour, cfg.AppLifetimeHours)
	fmt.Fprintf(&b, " model=%s models=%v rate=%g devices=%v cap=%g demand=%v capacity=%v alwayson=%t",
		appModel, cfg.Models, appRatePerSec, cfg.Devices, cfg.CapacityMilliPerSite,
		cfg.Demand, cfg.Capacity, cfg.ServersAlwaysOn)
	fmt.Fprintf(&b, " horizon=%d forecaster=%T%+v batch=%d loadci=%t redeploy=%d migmb=%g migj=%g warm=%t",
		fleet.ForecastHours, cfg.Forecaster, exported(cfg.Forecaster), cfg.BatchHours, cfg.CollectLoadCI,
		cfg.RedeployEveryHours, cfg.MigrationDataMB, cfg.MigrationJPerMB, cfg.WarmRedeploy)
	if cfg.Traffic != nil {
		fmt.Fprintf(&b, " traffic=%+v", *cfg.Traffic)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(&b, " faults=%+v", *cfg.Faults)
	}
	return b.String()
}

// exported returns a copy of v, a struct or a pointer to one, with every
// unexported field at its zero value (CarbonEnergyBlend's normalization
// cache, say), and any other v as it is. A fresh value renders the same
// either way, so signatures recorded before ConfigSig zeroed them stay
// valid.
func exported(v any) any {
	rv := reflect.ValueOf(v)
	ptr := rv.Kind() == reflect.Pointer && !rv.IsNil()
	if ptr {
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return v
	}
	out := reflect.New(rv.Type()).Elem()
	for i := range rv.NumField() {
		if rv.Type().Field(i).IsExported() {
			out.Field(i).Set(rv.Field(i))
		}
	}
	if ptr {
		return out.Addr().Interface()
	}
	return out.Interface()
}

// Snapshot captures the engine's full dynamic state. It must be called
// between Steps (an epoch boundary) — the only instants at which no
// epoch is partly run. The returned snapshot shares no mutable state
// with the engine but the row cache it is lent, which only AppendJSON
// touches, under its lock (the placement count labels it shares are
// never written). It folds the engine's pending placement counts into
// the result first (see Finish).
func (e *Engine) Snapshot() *Snapshot {
	e.foldPlacements()
	snap := &Snapshot{
		ConfigSig:     e.sig,
		Epoch:         e.epoch,
		RNG:           e.rngSrc.State(),
		ForceRedeploy: e.forceRedeploy,
		Result:        e.res.State(),
		rows:          e.rows,
		liveBase:      e.live.popped,
	}
	if len(e.faults.Skew) > 0 {
		snap.FcErr = maps.Clone(e.faults.Skew)
	}
	snap.Servers = make([]ServerSnap, len(e.servers))
	for j, srv := range e.servers {
		snap.Servers[j] = ServerSnap{
			Site:    srv.site,
			Device:  srv.Device.Name,
			BaseCap: srv.Base,
			Cap:     srv.Cap(),
			Used:    srv.Used,
			On:      srv.On,
			Down:    srv.Down,
		}
	}
	live := e.live.items()
	snap.Live = make([]LiveAppSnap, len(live))
	for i, a := range live {
		snap.Live[i] = LiveAppSnap{
			Srv: a.srv, Site: a.site, Model: e.pool.models[a.mi], Device: e.servers[a.srv].Device.Name,
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
	snap.InDropped = e.inDropped
	return snap
}

// degradeOf returns the Factor a row of base capacity holds when its
// effective capacity is capacity: 0 when they are equal, else the factor
// of a degrade in the script that scales base to exactly capacity. ok is
// false when no fault of the script can have set capacity: a checkpoint
// holds the capacity, the row its factor.
func degradeOf(script *events.FaultScript, base, capacity cluster.Resources) (factor float64, ok bool) {
	if capacity == base {
		return 0, true
	}
	if script != nil {
		for _, f := range script.Faults {
			if f.Kind == events.FaultDegrade && base.Scale(f.Factor) == capacity {
				return f.Factor, true
			}
		}
	}
	return 0, false
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
	// with the placement workspace, keeping index alignment). The crashed
	// count is the restored servers' down flags, counted here. Each
	// restored row is written through to the workspace.
	built := len(e.servers)
	for j, ss := range snap.Servers {
		if ss.Site < 0 || ss.Site >= len(e.sites) {
			return nil, fmt.Errorf("sim: snapshot server %d references site %d of %d", j, ss.Site, len(e.sites))
		}
		factor, ok := degradeOf(cfg.Faults, ss.BaseCap, ss.Cap)
		if !ok {
			return nil, fmt.Errorf("sim: snapshot server %d capacity %v is %v scaled by no degrade of the script", j, ss.Cap, ss.BaseCap)
		}
		if ss.Down {
			e.downCount++
		}
		if j < built {
			if srv := &e.servers[j]; srv.site != ss.Site || srv.Device.Name != ss.Device {
				return nil, fmt.Errorf("sim: snapshot server %d is %s@site%d, config builds %s@site%d",
					j, ss.Device, ss.Site, srv.Device.Name, srv.site)
			}
		} else {
			dev, err := energy.DeviceByName(ss.Device)
			if err != nil {
				return nil, fmt.Errorf("sim: snapshot server %d: %w", j, err)
			}
			e.servers = append(e.servers, e.newServer(ss.Site, dev, ss.BaseCap, ss.On))
			if err := e.ws.AddServers(fleet.Server((*engineRows)(e), j)); err != nil {
				return nil, err
			}
		}
		srv := &e.servers[j]
		srv.Base, srv.Factor, srv.Used, srv.On, srv.Down = ss.BaseCap, factor, ss.Used, ss.On, ss.Down
		e.syncRow(j)
	}

	live := make([]liveApp, len(snap.Live))
	for i, ls := range snap.Live {
		if ls.Srv < 0 || ls.Srv >= len(e.servers) {
			return nil, fmt.Errorf("sim: snapshot live app %d references server %d of %d", i, ls.Srv, len(e.servers))
		}
		if srv := &e.servers[ls.Srv]; ls.Site != srv.site || ls.Device != srv.Device.Name {
			return nil, fmt.Errorf("sim: snapshot live app %d is on %s@site%d, its server %d is %s@site%d",
				i, ls.Device, ls.Site, ls.Srv, srv.Device.Name, srv.site)
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
		demand, _, ok := placement.Coefficients(prof, appRatePerSec)
		if !ok {
			return nil, fmt.Errorf("sim: snapshot live app %d: %s cannot host %s at %g req/s", i, ls.Device, ls.Model, appRatePerSec)
		}
		live[i] = liveApp{
			srv: ls.Srv, site: ls.Site, mi: e.pool.model(ls.Model),
			demand: demand, powerW: ls.PowerW, rttMs: ls.RTTMs, expires: ls.Expires, srcSite: ls.SrcSite,
		}
	}
	e.live.buf = live
	e.indexLive()
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
		// Every backlog entry asks the config's SLO at the config's rate:
		// placed, it holds exactly its class's cells.
		if ps.App.SLOms != cfg.RTTLimitMs || ps.App.RatePerSec != appRatePerSec {
			return nil, fmt.Errorf("sim: snapshot pending app %d asks %g ms at %g req/s, the config's apps %g ms at %g req/s",
				i, ps.App.SLOms, ps.App.RatePerSec, cfg.RTTLimitMs, appRatePerSec)
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
	e.forceRedeploy = snap.ForceRedeploy
	e.faults.Skew = maps.Clone(snap.FcErr)

	// Result: rebuild the accumulator, then re-attach the live traffic
	// stats to the engine's router so stepTraffic keeps accruing into the
	// restored totals.
	res, err := snap.Result.Restore()
	if err != nil {
		return nil, err
	}
	for _, city := range res.PlacementsByCity.Labels() {
		if _, ok := e.siteIdxByCity[city]; !ok {
			return nil, fmt.Errorf("sim: snapshot counts placements in %q, which no site of the run is in", city)
		}
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
	if d := snap.InDropped; d != 0 && (d < 0 || e.res.Traffic == nil || d > e.res.Traffic.Dropped) {
		return nil, fmt.Errorf("sim: snapshot counts %d dropped injected requests, outside what the router dropped", d)
	}
	e.inDropped = snap.InDropped
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
	if err := checkPhysical(e); err != nil {
		return nil, fmt.Errorf("sim: snapshot state is not physical: %w", err)
	}
	return e, nil
}
