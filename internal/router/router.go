// Package router load-balances aggregated request traffic across a
// deployment's placed replicas and records request-level service quality:
// SLO attainment, end-to-end latency quantiles (in bounded memory via
// metrics.QuantileSketch), and per-request energy/carbon attribution.
//
// Requests arrive as per-source aggregated counts (one traffic.Generator
// slice), not as individual request objects, so a single core sustains
// millions of routed requests per second. Within one slice, each source's
// demand is spread across the SLO-feasible replicas proportionally to
// their remaining capacity; demand that exceeds the feasible replicas'
// capacity spills over to SLO-violating replicas, and demand no replica
// can absorb is dropped (an overload signal).
//
// Routing is fully deterministic: it uses no randomness and visits
// replicas in their given order, so serial and parallel sweep runs stay
// bit-identical.
//
// Sources and replicas are named by location index, and RouteAt is the one
// routing call. What is constant between network changes is computed
// once. The end-to-end latency of a (source location, replica) pair
// depends only on the source index and the replica's (Loc, ServiceMs)
// class, so the router memoizes it — and the latency-sketch bucket it
// lands in — per class and source until the caller invalidates the memo
// (InvalidateRTT); RouteAt then only reads rows and runs the waterfill.
// Latency observations are not added to the sketches
// one assignment at a time: a slice logs them and Close folds the log in,
// in assignment order under one lock, so the sketches hold exactly what
// per-assignment adds would have produced — once the slice is closed.
package router

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
)

// Replica is one serving instance of a deployment.
type Replica struct {
	// ID labels the replica in telemetry. Callers choose the cardinality
	// and own its lifetime: the simulator keys by hosting city (a fixed
	// set), the orchestrator by deployment name and retires the ID when the
	// deployment is gone for good (Router.Retire), so per-replica aggregates
	// stay bounded by the IDs in use.
	ID string
	// City is the hosting city's name.
	//
	// Deprecated: unread; routing goes by Loc. It is kept only because
	// bench/probes.go sets it.
	City string
	// Loc is the hosting city's index in the caller's location universe,
	// the destination RouteAt hands Config.RTTAt.
	Loc int
	// ZoneID is the hosting carbon zone, used for attribution.
	ZoneID string
	// CapacityRPS is the replica's sustainable request rate.
	CapacityRPS float64
	// ServiceMs is the per-request service time.
	ServiceMs float64
	// EnergyPerReqJ is the marginal energy per served request in joules.
	EnergyPerReqJ float64
}

// Config assembles a router.
type Config struct {
	// SLOms is the end-to-end response-time objective (network round trip
	// plus service time).
	SLOms float64
	// RTT is a name-keyed RTT oracle.
	//
	// Deprecated: unread; the router routes by location index through
	// RTTAt. It is kept only because bench/probes.go sets it.
	RTT func(src, dst string) float64
	// RTTAt is the RTT oracle (required): round-trip network latency in
	// milliseconds between a source location index and Replica.Loc. It
	// must be pure until invalidated: each (src, dst) pair is evaluated
	// once and the result memoized until Router.InvalidateRTT, which a
	// caller whose network can change must call when it does.
	RTTAt func(src, dst int) float64
	// PerReplica enables per-replica latency sketches and carbon
	// aggregates (the orchestrator's live stats); when false only the
	// request counter per replica ID is kept.
	PerReplica bool
}

// ReplicaStats aggregates one replica ID's request-level telemetry.
type ReplicaStats struct {
	Requests  int64
	SLOMet    int64
	Spilled   int64
	Latency   *metrics.QuantileSketch
	EnergyKWh float64
	CarbonG   float64
}

// Stats is the router's bounded-memory telemetry accumulator. All request
// counters are attempt-complete: Requests = SLOMet + missed + Dropped,
// where missed requests were served past the SLO (including spill-over).
type Stats struct {
	// Requests counts every request offered to the router.
	Requests int64
	// SLOMet counts requests served within the SLO.
	SLOMet int64
	// Spilled counts requests served by an SLO-violating replica because
	// the feasible replicas were saturated.
	Spilled int64
	// Dropped counts requests no replica had capacity for.
	Dropped int64
	// OverloadSlices counts routing slices that dropped at least one
	// request — the router's overload signal.
	OverloadSlices int64
	// Latency sketches end-to-end response time (ms) over all served
	// requests.
	Latency *metrics.QuantileSketch
	// EnergyKWh and CarbonG accumulate served requests' marginal energy
	// and emissions (per-request attribution at the hosting zone's
	// current carbon intensity).
	EnergyKWh float64
	CarbonG   float64
	// ByReplica counts served requests per replica ID.
	ByReplica *metrics.Counter
	// Replicas holds per-replica aggregates when Config.PerReplica is on:
	// one row per ID that was routed at least one request and has not been
	// retired since (Router.Retire). The totals above are accumulators of
	// their own, never derived from the rows, so they are lifetime figures
	// whatever is retired; a retired row's counters are the totals minus
	// the remaining rows.
	Replicas map[string]*ReplicaStats
}

// SLOAttainment returns the fraction of offered requests served within
// the SLO (NaN when no requests were offered).
func (s *Stats) SLOAttainment() float64 {
	if s.Requests == 0 {
		return math.NaN()
	}
	return float64(s.SLOMet) / float64(s.Requests)
}

// DropRate returns the fraction of offered requests dropped.
func (s *Stats) DropRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Requests)
}

// Router accumulates stats over any number of routing slices.
type Router struct {
	cfg   Config
	stats Stats
	// reuse is the router-owned slice handed out by ReuseSlice; its
	// buffers persist across slices so steady-state routing is
	// allocation-free.
	reuse Slice
	// memo holds one row per replica class seen by RouteAt, until
	// InvalidateRTT (RestoreStats empties it too: buckets are resolved
	// against stats.Latency).
	memo map[pairClass]*pairRow
}

// pairClass is what a replica contributes to a pair's end-to-end latency:
// replicas that share it share a memo row.
type pairClass struct {
	loc     int
	svcBits uint64 // math.Float64bits(ServiceMs): a NaN must still equal itself
}

// pairCell is the memoized outcome for one (source location, class) pair.
type pairCell struct {
	lat    float64 // RTTAt(src, loc) + ServiceMs; NaN = not evaluated yet
	bucket int32   // stats.Latency.Bucket(lat)
}

// pairRow is one class's cells, indexed by source location and grown on
// demand to the highest source index routed so far.
type pairRow struct{ cells []pairCell }

// eval grows the row to cover src and evaluates the pair's cell. An
// oracle that answers NaN is simply asked again next time.
func (row *pairRow) eval(r *Router, src int, rep *Replica) pairCell {
	for len(row.cells) <= src {
		row.cells = append(row.cells, pairCell{lat: math.NaN()})
	}
	c := &row.cells[src]
	c.lat = r.cfg.RTTAt(src, rep.Loc) + rep.ServiceMs
	c.bucket = r.stats.Latency.Bucket(c.lat)
	return *c
}

// New builds a router.
func New(cfg Config) (*Router, error) {
	if cfg.SLOms <= 0 {
		return nil, fmt.Errorf("router: SLOms must be positive")
	}
	if cfg.RTTAt == nil {
		return nil, fmt.Errorf("router: RTTAt oracle is required")
	}
	r := &Router{cfg: cfg, memo: map[pairClass]*pairRow{}}
	r.stats.Latency = metrics.NewQuantileSketch()
	r.stats.ByReplica = metrics.NewCounter()
	if cfg.PerReplica {
		r.stats.Replicas = map[string]*ReplicaStats{}
	}
	return r, nil
}

// Stats returns the router's live accumulator. The pointer stays owned by
// the router; concurrent reads while routing require external
// synchronization (the orchestrator holds its own lock).
func (r *Router) Stats() *Stats { return &r.stats }

// Retire drops replica id's per-replica state — its Stats.Replicas row
// and its ByReplica label — for a caller whose replica is gone for good;
// the totals keep everything the replica served. Routing to the same ID
// again starts a fresh row. It is legal only between slices (after Close,
// before the next ReuseSlice): an open slice has logged observations
// against the row. Retiring an unknown ID is a no-op.
func (r *Router) Retire(id string) {
	delete(r.stats.Replicas, id)
	r.stats.ByReplica.Delete(id)
}

// InvalidateRTT drops every memoized pair latency, so the next RouteAt
// asks Config.RTTAt again: a caller whose network changed calls it before
// routing over the new delays. Like Retire, it is legal only between
// slices.
func (r *Router) InvalidateRTT() { clear(r.memo) }

// Slice is one routing window over a fixed replica set: replicas' free
// capacity depletes as sources are routed, then the slice is closed.
//
// Per-replica zone carbon intensity is memoized on first use within a
// slice, so the intensity oracle must be stable for a slice's lifetime
// (both the simulator and the orchestrator freeze intensity per window).
type Slice struct {
	r        *Router
	replicas []Replica
	// free is each replica's remaining request budget this slice.
	free []float64
	// served counts requests assigned per replica this slice.
	served  []int64
	dropped int64
	closed  bool
	// lat, bucket, feasible, and infeasible are per-RouteAt partition
	// scratch, reused across calls: each replica's end-to-end latency from
	// the current source, the sketch bucket it lands in, and the split by
	// SLO feasibility.
	lat        []float64
	bucket     []int32
	feasible   []int
	infeasible []int
	// rows is each replica's memo row, resolved on the slice's first
	// RouteAt (rowsOK) and valid until the next reset.
	rows   []*pairRow
	rowsOK bool
	// log is the slice's latency observations in assignment order, folded
	// into Stats.Latency by Close; logRep holds each entry's per-replica
	// aggregate, kept only when per-replica sketches are on.
	log    []metrics.Obs
	logRep []*ReplicaStats
	// zi memoizes each replica's zone carbon intensity for the slice;
	// ziOK marks which entries are populated.
	zi   []float64
	ziOK []bool
}

// reslice grows b to exactly n elements, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element.
func reslice[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// reset points the slice at a replica set and refills its budgets.
func (s *Slice) reset(replicas []Replica, seconds float64) {
	n := len(replicas)
	s.replicas = replicas
	s.free = reslice(s.free, n)
	s.served = reslice(s.served, n)
	s.lat = reslice(s.lat, n)
	s.bucket = reslice(s.bucket, n)
	s.rows = reslice(s.rows, n)
	s.rowsOK = false
	s.log = s.log[:0]
	s.logRep = s.logRep[:0]
	s.zi = reslice(s.zi, n)
	s.ziOK = reslice(s.ziOK, n)
	s.feasible = s.feasible[:0]
	s.infeasible = s.infeasible[:0]
	s.dropped = 0
	s.closed = false
	for i := range replicas {
		s.free[i] = replicas[i].CapacityRPS * seconds
		s.served[i] = 0
		s.ziOK[i] = false
	}
}

// ReuseSlice opens a routing window of the given duration over a replica
// set, on the router-owned slice: its buffers persist, so after the first
// call opening and routing a slice performs no steady-state allocations.
// The replica order is the deterministic tie-break order. At most one
// slice may be live per router at a time — the caller must Close it
// before the next ReuseSlice call.
func (r *Router) ReuseSlice(replicas []Replica, seconds float64) *Slice {
	s := &r.reuse
	s.r = r
	s.reset(replicas, seconds)
	return s
}

// RouteAt balances count requests originating at source location srcLoc
// (>= 0) across the slice's replicas: the SLO-feasible ones first, in
// proportion to their free capacity, then the rest as spill-over.
// intensity returns the hosting zone's current carbon intensity
// (gCO2eq/kWh) for attribution. Latencies and sketch buckets come from
// the router's pair memo, so a pair costs one Config.RTTAt call and one
// logarithm until the memo is invalidated, not one per slice.
func (s *Slice) RouteAt(srcLoc int, count int64, intensity func(zoneID string) float64) {
	if count <= 0 || s.closed {
		return
	}
	s.r.stats.Requests += count
	if !s.rowsOK {
		s.resolveRows()
	}

	s.feasible = s.feasible[:0]
	s.infeasible = s.infeasible[:0]
	for i, row := range s.rows {
		c := pairCell{lat: math.NaN()}
		if srcLoc < len(row.cells) {
			c = row.cells[srcLoc]
		}
		if c.lat != c.lat {
			c = row.eval(s.r, srcLoc, &s.replicas[i])
		}
		s.lat[i], s.bucket[i] = c.lat, c.bucket
		if c.lat <= s.r.cfg.SLOms {
			s.feasible = append(s.feasible, i)
		} else {
			s.infeasible = append(s.infeasible, i)
		}
	}
	s.fill(count, intensity)
}

// resolveRows points each replica at its class's memo row, creating rows
// for classes this router has not routed to before.
func (s *Slice) resolveRows() {
	for i := range s.replicas {
		rep := &s.replicas[i]
		k := pairClass{loc: rep.Loc, svcBits: math.Float64bits(rep.ServiceMs)}
		row := s.r.memo[k]
		if row == nil {
			row = &pairRow{} //detlint:hotalloc amortized: allocates once per newly seen replica class
			s.r.memo[k] = row
		}
		s.rows[i] = row
	}
	s.rowsOK = true
}

// fill runs the two-phase waterfill over the partition built by RouteAt
// and records any unplaceable remainder as dropped.
func (s *Slice) fill(count int64, intensity func(string) float64) {
	left := s.waterfill(count, s.feasible, false, intensity)
	if left > 0 {
		left = s.waterfill(left, s.infeasible, true, intensity)
	}
	if left > 0 {
		s.r.stats.Dropped += left
		s.dropped += left
	}
}

// waterfill spreads count requests over the indexed replicas in
// proportion to their remaining capacity, iterating as replicas saturate;
// it returns the demand that found no capacity. spill marks the requests
// as spill-over (served past the SLO).
func (s *Slice) waterfill(count int64, idxs []int, spill bool, intensity func(string) float64) int64 {
	left := count
	for left > 0 {
		var totalFree float64
		for _, i := range idxs {
			if s.free[i] >= 1 {
				totalFree += s.free[i]
			}
		}
		if totalFree < 1 {
			break
		}
		progressed := false
		rem := left
		for _, i := range idxs {
			if rem == 0 {
				break
			}
			if s.free[i] < 1 {
				continue
			}
			n := int64(float64(left) * s.free[i] / totalFree)
			if n == 0 {
				n = 1 // guarantee progress on tiny proportional shares
			}
			if n > rem {
				n = rem
			}
			if budget := int64(s.free[i]); n > budget {
				n = budget
			}
			if n == 0 {
				continue
			}
			s.assign(i, n, s.lat[i], spill, intensity)
			s.free[i] -= float64(n)
			rem -= n
			progressed = true
		}
		left = rem
		if !progressed {
			break
		}
	}
	return left
}

// zoneIntensity returns replica i's memoized zone carbon intensity.
func (s *Slice) zoneIntensity(i int, intensity func(string) float64) float64 {
	if !s.ziOK[i] {
		s.zi[i] = intensity(s.replicas[i].ZoneID)
		s.ziOK[i] = true
	}
	return s.zi[i]
}

// assign commits n requests to replica i and records their telemetry.
// Per-replica request counts accumulate in served, and the latency
// observation in log; both flow into Stats when the slice closes.
func (s *Slice) assign(i int, n int64, latMs float64, spill bool, intensity func(string) float64) {
	rep := &s.replicas[i]
	st := &s.r.stats
	s.served[i] += n

	met := latMs <= s.r.cfg.SLOms
	if met {
		st.SLOMet += n
	}
	if spill {
		st.Spilled += n
	}
	s.log = append(s.log, metrics.Obs{V: latMs, N: n, Bucket: s.bucket[i]})

	kwh := float64(n) * rep.EnergyPerReqJ / 3.6e6
	grams := kwh * s.zoneIntensity(i, intensity)
	st.EnergyKWh += kwh
	st.CarbonG += grams

	if st.Replicas != nil {
		rs := st.Replicas[rep.ID]
		if rs == nil {
			rs = &ReplicaStats{Latency: metrics.NewQuantileSketch()} //detlint:hotalloc amortized: allocates once per newly seen replica ID
			st.Replicas[rep.ID] = rs
		}
		rs.Requests += n
		if met {
			rs.SLOMet += n
		}
		if spill {
			rs.Spilled += n
		}
		s.logRep = append(s.logRep, rs)
		rs.EnergyKWh += kwh
		rs.CarbonG += grams
	}
}

// Served returns the per-replica request counts assigned so far this
// slice (indexed like the replica set; do not modify). For a reused
// slice the backing array is recycled by the next ReuseSlice call.
func (s *Slice) Served() []int64 { return s.served }

// Dropped returns the requests dropped so far this slice.
func (s *Slice) Dropped() int64 { return s.dropped }

// Close finalizes the slice: the logged latency observations fold into
// the sketches in assignment order, per-replica served counts flush into
// Stats.ByReplica (one Inc per replica instead of one per waterfill
// assignment) and a slice that dropped requests marks one overload
// interval. Stats readers must wait for Close. Closing twice is a no-op.
func (s *Slice) Close() {
	if s.closed {
		return
	}
	s.closed = true
	st := &s.r.stats
	st.Latency.AddObs(s.log)
	// A per-replica sketch takes the logged bucket only at stats.Latency's
	// resolution; a restored one need not share it and takes the value.
	for k, rs := range s.logRep {
		if rs.Latency.SameResolution(st.Latency) {
			rs.Latency.AddObs(s.log[k : k+1])
		} else {
			rs.Latency.AddN(s.log[k].V, s.log[k].N)
		}
	}
	for i, n := range s.served {
		if n > 0 {
			s.r.stats.ByReplica.Inc(s.replicas[i].ID, n)
		}
	}
	if s.dropped > 0 {
		s.r.stats.OverloadSlices++
	}
}

// ReplicaSnapshot is the JSON-friendly view of one replica's aggregates.
type ReplicaSnapshot struct {
	ID            string  `json:"id"`
	Requests      int64   `json:"requests"`
	SLOPct        float64 `json:"slo_attainment_pct"`
	Spilled       int64   `json:"spilled"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	EnergyKWh     float64 `json:"energy_kwh"`
	CarbonG       float64 `json:"carbon_g"`
	CarbonPerMReq float64 `json:"carbon_g_per_mreq"`
}

// Snapshot is a point-in-time, JSON-friendly summary of the stats.
type Snapshot struct {
	Requests       int64             `json:"requests"`
	SLOMet         int64             `json:"slo_met"`
	SLOPct         float64           `json:"slo_attainment_pct"`
	Spilled        int64             `json:"spilled"`
	Dropped        int64             `json:"dropped"`
	OverloadSlices int64             `json:"overload_slices"`
	P50Ms          float64           `json:"p50_ms"`
	P95Ms          float64           `json:"p95_ms"`
	P99Ms          float64           `json:"p99_ms"`
	EnergyKWh      float64           `json:"energy_kwh"`
	CarbonG        float64           `json:"carbon_g"`
	Replicas       []ReplicaSnapshot `json:"replicas,omitempty"`
}

// pct converts a NaN-able fraction to a JSON-safe percentage.
func pct(f float64) float64 {
	if math.IsNaN(f) {
		return 0
	}
	return f * 100
}

// q reads a sketch quantile as a JSON-safe value.
func q(sk *metrics.QuantileSketch, p float64) float64 {
	v := sk.Quantile(p)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Snapshot summarizes the stats, with per-replica rows sorted by ID.
// The per-replica row slice is sized up front, so a scrape performs one
// bounded allocation rather than growing by append.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Requests:       s.Requests,
		SLOMet:         s.SLOMet,
		SLOPct:         pct(s.SLOAttainment()),
		Spilled:        s.Spilled,
		Dropped:        s.Dropped,
		OverloadSlices: s.OverloadSlices,
		P50Ms:          q(s.Latency, 0.5),
		P95Ms:          q(s.Latency, 0.95),
		P99Ms:          q(s.Latency, 0.99),
		EnergyKWh:      s.EnergyKWh,
		CarbonG:        s.CarbonG,
	}
	if len(s.Replicas) > 0 {
		snap.Replicas = make([]ReplicaSnapshot, 0, len(s.Replicas))
	}
	//detlint:ordered rows are sorted by replica ID immediately after this loop
	for id, rs := range s.Replicas {
		row := ReplicaSnapshot{
			ID:        id,
			Requests:  rs.Requests,
			Spilled:   rs.Spilled,
			P50Ms:     q(rs.Latency, 0.5),
			P95Ms:     q(rs.Latency, 0.95),
			P99Ms:     q(rs.Latency, 0.99),
			EnergyKWh: rs.EnergyKWh,
			CarbonG:   rs.CarbonG,
		}
		if rs.Requests > 0 {
			row.SLOPct = float64(rs.SLOMet) / float64(rs.Requests) * 100
			row.CarbonPerMReq = rs.CarbonG / float64(rs.Requests) * 1e6
		}
		snap.Replicas = append(snap.Replicas, row)
	}
	sort.Slice(snap.Replicas, func(i, j int) bool { return snap.Replicas[i].ID < snap.Replicas[j].ID })
	return snap
}

// ReplicaStatsState is the serializable form of one replica's aggregates.
type ReplicaStatsState struct {
	Requests  int64               `json:"requests"`
	SLOMet    int64               `json:"slo_met"`
	Spilled   int64               `json:"spilled"`
	Latency   metrics.SketchState `json:"latency"`
	EnergyKWh float64             `json:"energy_kwh"`
	CarbonG   float64             `json:"carbon_g"`
}

// StatsState is the serializable form of the router's accumulator, used
// by checkpoint/restore. Restoring it reproduces every counter, sketch
// bucket, and attribution total bit-identically.
type StatsState struct {
	Requests       int64                        `json:"requests"`
	SLOMet         int64                        `json:"slo_met"`
	Spilled        int64                        `json:"spilled"`
	Dropped        int64                        `json:"dropped"`
	OverloadSlices int64                        `json:"overload_slices"`
	Latency        metrics.SketchState          `json:"latency"`
	EnergyKWh      float64                      `json:"energy_kwh"`
	CarbonG        float64                      `json:"carbon_g"`
	ByReplica      map[string]int64             `json:"by_replica,omitempty"`
	Replicas       map[string]ReplicaStatsState `json:"replicas,omitempty"`
}

// State exports the accumulator. Callers routing concurrently must hold
// their own lock (as with Stats).
func (s *Stats) State() StatsState {
	st := StatsState{
		Requests:       s.Requests,
		SLOMet:         s.SLOMet,
		Spilled:        s.Spilled,
		Dropped:        s.Dropped,
		OverloadSlices: s.OverloadSlices,
		Latency:        s.Latency.State(),
		EnergyKWh:      s.EnergyKWh,
		CarbonG:        s.CarbonG,
		ByReplica:      s.ByReplica.State(),
	}
	if s.Replicas != nil {
		st.Replicas = make(map[string]ReplicaStatsState, len(s.Replicas))
		for id, rs := range s.Replicas {
			st.Replicas[id] = ReplicaStatsState{
				Requests:  rs.Requests,
				SLOMet:    rs.SLOMet,
				Spilled:   rs.Spilled,
				Latency:   rs.Latency.State(),
				EnergyKWh: rs.EnergyKWh,
				CarbonG:   rs.CarbonG,
			}
		}
	}
	return st
}

// RestoreStats replaces the router's accumulator with an exported state
// (a fresh router about to resume a checkpointed run). The per-replica
// map is rebuilt only when the state carries one, mirroring PerReplica.
// The pair memo is emptied: its buckets were resolved against the
// replaced latency sketch, and a restored one may differ in resolution.
func (r *Router) RestoreStats(st StatsState) error {
	lat, err := metrics.SketchFromState(st.Latency)
	if err != nil {
		return fmt.Errorf("router: restoring latency sketch: %w", err)
	}
	stats := Stats{
		Requests:       st.Requests,
		SLOMet:         st.SLOMet,
		Spilled:        st.Spilled,
		Dropped:        st.Dropped,
		OverloadSlices: st.OverloadSlices,
		Latency:        lat,
		EnergyKWh:      st.EnergyKWh,
		CarbonG:        st.CarbonG,
		ByReplica:      metrics.CounterFromState(st.ByReplica),
	}
	if r.cfg.PerReplica || st.Replicas != nil {
		stats.Replicas = make(map[string]*ReplicaStats, len(st.Replicas))
		//detlint:ordered keyed stores into a fresh map; order only picks which restore error surfaces, and any error aborts the restore
		for id, rs := range st.Replicas {
			sk, err := metrics.SketchFromState(rs.Latency)
			if err != nil {
				return fmt.Errorf("router: restoring replica %s sketch: %w", id, err)
			}
			stats.Replicas[id] = &ReplicaStats{
				Requests:  rs.Requests,
				SLOMet:    rs.SLOMet,
				Spilled:   rs.Spilled,
				Latency:   sk,
				EnergyKWh: rs.EnergyKWh,
				CarbonG:   rs.CarbonG,
			}
		}
	}
	r.stats = stats
	clear(r.memo)
	return nil
}
