package sim

import (
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/metrics"
)

// AppendJSON appends the snapshot's JSON encoding to dst: exactly the
// bytes json.Marshal(s) produces, or json.Marshal's error with dst
// returned unchanged. internal/checkpoint writes engine envelopes
// through it. The fields every snapshot carries — the scalars, the
// server and live-app tables and the result accumulators — are written
// here without reflection; the optional ones a snapshot rarely carries
// (forecast errors, the backlog, the exchange mailboxes, fault and
// traffic stats) are handed to json.Marshal, whose encoding of a nested
// value is the same on its own. A server row or live-app entry equal bit
// for bit to one an earlier snapshot of the same engine encoded is
// copied from the engine's rowCache, not rendered again; every other
// snapshot encodes to the same bytes without it.
//
// It is deliberately not MarshalJSON: json.Marshal would then call it
// and re-compact its output, and the tests would lose json.Marshal as
// the reflection oracle this encoder is held to.
func (s *Snapshot) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	w := jsonWriter{b: dst}
	w.raw(`{"config_sig":`)
	w.str(s.ConfigSig)
	w.raw(`,"epoch":`)
	w.int(int64(s.Epoch))
	w.raw(`,"rng":`)
	w.b = strconv.AppendUint(w.b, s.RNG, 10)
	if s.ForceRedeploy {
		w.raw(`,"force_redeploy":true`)
	}
	if len(s.FcErr) > 0 {
		w.raw(`,"fc_err":`)
		w.marshal(s.FcErr)
	}
	s.rows.tables(&w, s)
	if len(s.Pending) > 0 {
		w.raw(`,"pending":`)
		w.marshal(s.Pending)
	}
	if len(s.Outbox) > 0 {
		w.raw(`,"outbox":`)
		w.marshal(s.Outbox)
	}
	if len(s.InApps) > 0 {
		w.raw(`,"inbox_apps":`)
		w.marshal(s.InApps)
	}
	if len(s.InReqs) > 0 {
		w.raw(`,"inbox_reqs":`)
		w.marshal(s.InReqs)
	}
	if s.InDropped != 0 {
		w.raw(`,"inbox_dropped":`)
		w.int(s.InDropped)
	}
	w.raw(`,"result":`)
	w.result(&s.Result)
	w.raw("}")
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// jsonWriter appends JSON under encoding/json's rules. Its error is
// sticky: the first failure is kept, later writes are wasted work, and
// the caller checks once at the end.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

// comma separates element i of a list from the one before it.
func (w *jsonWriter) comma(i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
}

// float writes f as encoding/json does: the shortest 'f' rendering, or
// 'e' below 1e-6 and from 1e21 in magnitude with a single-digit negative
// exponent unpadded. An integer below 2^53 in magnitude (other than -0)
// has that rendering as its decimal integer, which AppendInt writes
// without the shortest-digits search.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.marshal(f) // for json.Marshal's own error
		return
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		w.b = strconv.AppendInt(w.b, int64(f), 10)
		return
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		w.b = strconv.AppendFloat(w.b, f, 'e', -1, 64)
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
		return
	}
	w.b = strconv.AppendFloat(w.b, f, 'f', -1, 64)
}

// str writes s quoted. Printable ASCII other than the quote, the
// backslash and the HTML characters <, > and & is written as is; any
// other string goes through json.Marshal, so HTML escaping, control
// characters and invalid UTF-8 come out as encoding/json writes them.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.marshal(s)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// marshal appends json.Marshal(v), or records its error.
func (w *jsonWriter) marshal(v any) {
	if w.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		w.err = err
		return
	}
	w.b = append(w.b, b...)
}

func (w *jsonWriter) floats(fs []float64) {
	w.raw("[")
	for i, f := range fs {
		w.comma(i)
		w.float(f)
	}
	w.raw("]")
}

func (w *jsonWriter) summary(s *metrics.SummaryState) {
	w.raw(`{"n":`)
	w.int(int64(s.N))
	w.raw(`,"sum":`)
	w.float(s.Sum)
	w.raw(`,"min":`)
	w.float(s.Min)
	w.raw(`,"max":`)
	w.float(s.Max)
	w.raw(`,"sum_squares":`)
	w.float(s.SumSquares)
	w.raw("}")
}

// counts writes a label map with its keys in bytewise order, as
// encoding/json sorts them. sorted, distinct keys (a counter's cached
// labels) are used as the order when they are exactly m's keys: as many,
// and each one in m. Otherwise the keys are sorted here.
func (w *jsonWriter) counts(m map[string]int64, keys []string) {
	if m == nil {
		w.raw("null")
		return
	}
	mark := len(w.b)
	if len(keys) == len(m) && w.countsIn(m, keys) {
		return
	}
	w.b = w.b[:mark]
	w.countsIn(m, slices.Sorted(maps.Keys(m)))
}

// countsIn writes m in the order of keys, or reports false on the first
// key m lacks.
func (w *jsonWriter) countsIn(m map[string]int64, keys []string) bool {
	w.raw("{")
	for i, k := range keys {
		v, ok := m[k]
		if !ok {
			return false
		}
		w.comma(i)
		w.str(k)
		w.raw(":")
		w.int(v)
	}
	w.raw("}")
	return true
}

func (w *jsonWriter) result(r *ResultState) {
	w.raw(`{"carbon_g":`)
	w.float(r.CarbonG)
	w.raw(`,"energy_kwh":`)
	w.float(r.EnergyKWh)
	w.raw(`,"latency":`)
	w.summary(&r.Latency)
	w.raw(`,"monthly_carbon_g":`)
	w.floats(r.MonthlyCarbonG[:])
	w.raw(`,"monthly_latency":[`)
	for m := range r.MonthlyLatency {
		w.comma(m)
		w.summary(&r.MonthlyLatency[m])
	}
	w.raw("]")
	w.raw(`,"placements_by_city":`)
	w.counts(r.PlacementsByCity, r.cityKeys)
	w.raw(`,"monthly_placements":`)
	w.counts(r.MonthlyPlacements, r.monthKeys)
	if len(r.LoadCI) > 0 {
		w.raw(`,"load_ci":`)
		w.floats(r.LoadCI)
	}
	w.raw(`,"placed":`)
	w.int(int64(r.Placed))
	w.raw(`,"unplaced":`)
	w.int(int64(r.Unplaced))
	w.raw(`,"migrations":`)
	w.int(int64(r.Migrations))
	w.raw(`,"migration_kwh":`)
	w.float(r.MigrationKWh)
	w.raw(`,"migration_carbon_g":`)
	w.float(r.MigrationCarbonG)
	w.raw(`,"solve_time_ns":`)
	w.int(r.SolveTimeNs)
	w.raw(`,"batches":`)
	w.int(int64(r.Batches))
	if r.Faults != nil {
		w.raw(`,"faults":`)
		w.marshal(r.Faults)
	}
	if r.Traffic != nil {
		w.raw(`,"traffic":`)
		w.marshal(r.Traffic)
	}
	w.raw("}")
}

// rowCache holds the JSON of the server rows and live-app entries an
// engine's snapshots last encoded, each beside the value it was rendered
// from. Engine.Snapshot lends it to every snapshot it takes (as Result
// lends its counters' sorted labels), and AppendJSON copies a row's
// bytes instead of rendering it again only while the row equals that
// value bit for bit. So the cache never has to be told that a row
// changed: a stale entry fails the comparison and is rendered afresh,
// and a snapshot without a cache (decoded or built by hand) runs the
// same loop and finds nothing to reuse. A row whose encoding fails is
// never stored. mu serializes encodes of snapshots that share the cache.
type rowCache struct {
	mu      sync.Mutex
	servers []cachedRow[ServerSnap]
	// live is the live table as last encoded, in its order; next is its
	// double buffer, spare the entries dropped from it, kept for their
	// buffers.
	live, next, spare []*cachedRow[LiveAppSnap]
}

// cachedRow is one row and its JSON.
type cachedRow[T any] struct {
	val T
	b   []byte
}

// liveScan bounds the live table's forward scan for a cached entry. The
// engine's table keeps its order: departures drop entries, arrivals
// grow the tail and a redeploy rewrites entries in place, so an
// unchanged entry sits at most as many places past the last hit as
// entries left the table between the two encodes. An epoch that drops
// more than liveScan entries from the head misses the cache once and is
// rendered in full.
const liveScan = 32

// tables writes the snapshot's "servers" and "live" members. Server rows
// are looked up by index (a table only grows), live entries by a
// forward scan from the last hit.
func (c *rowCache) tables(w *jsonWriter, s *Snapshot) {
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	w.raw(`,"servers":`)
	if s.Servers == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for j := range s.Servers {
			w.comma(j)
			c.server(w, j, &s.Servers[j])
		}
		w.raw("]")
	}
	w.raw(`,"live":`)
	if s.Live == nil {
		w.raw("null")
		return
	}
	var cur, next []*cachedRow[LiveAppSnap]
	if c != nil {
		cur, next = c.live, c.next[:0]
	}
	w.raw("[")
	k := 0 // cur[k:] have not been passed yet
	for i := range s.Live {
		a := &s.Live[i]
		w.comma(i)
		if h := findLive(cur[k:min(k+liveScan, len(cur))], a); h >= 0 {
			h += k
			w.b = append(w.b, cur[h].b...)
			c.spare = append(c.spare, cur[k:h]...)
			next = append(next, cur[h])
			k = h + 1
			continue
		}
		off := len(w.b)
		w.liveApp(a)
		if c != nil && w.err == nil {
			r := c.spareRow()
			r.val, r.b = *a, append(r.b[:0], w.b[off:]...)
			next = append(next, r)
		}
	}
	w.raw("]")
	if c != nil {
		c.spare = append(c.spare, cur[k:]...)
		clear(cur)
		c.live, c.next = next, cur[:0]
	}
}

// server writes server row j, from the cache when it holds row j's value.
func (c *rowCache) server(w *jsonWriter, j int, srv *ServerSnap) {
	if c != nil && j < len(c.servers) && sameServer(&c.servers[j].val, srv) {
		w.b = append(w.b, c.servers[j].b...)
		return
	}
	off := len(w.b)
	w.server(srv)
	if c == nil || w.err != nil {
		return
	}
	switch {
	case j < len(c.servers):
		c.servers[j] = cachedRow[ServerSnap]{*srv, append(c.servers[j].b[:0], w.b[off:]...)}
	case j == len(c.servers):
		c.servers = append(c.servers, cachedRow[ServerSnap]{*srv, append([]byte(nil), w.b[off:]...)})
	}
}

// findLive returns the index in rows of the first entry equal to a, or
// -1.
func findLive(rows []*cachedRow[LiveAppSnap], a *LiveAppSnap) int {
	for h, r := range rows {
		if sameLive(&r.val, a) {
			return h
		}
	}
	return -1
}

// spareRow returns an entry dropped earlier, or a new one.
func (c *rowCache) spareRow() *cachedRow[LiveAppSnap] {
	n := len(c.spare)
	if n == 0 {
		return new(cachedRow[LiveAppSnap])
	}
	r := c.spare[n-1]
	c.spare = c.spare[:n-1]
	return r
}

// sameServer reports whether two server rows are equal bit for bit, and
// so render the same bytes: floats compare by their bits, since 0 and
// -0 render differently and NaN equals nothing.
func sameServer(a, b *ServerSnap) bool {
	return a.Site == b.Site && a.On == b.On && a.Down == b.Down && a.Device == b.Device &&
		sameFloats(a.Used[:], b.Used[:]) && sameFloats(a.Cap[:], b.Cap[:]) && sameFloats(a.BaseCap[:], b.BaseCap[:])
}

// sameLive is sameServer for live-app entries.
func sameLive(a, b *LiveAppSnap) bool {
	return a.Expires == b.Expires && a.Srv == b.Srv && a.Site == b.Site && a.SrcSite == b.SrcSite &&
		sameFloat(a.PowerW, b.PowerW) && sameFloat(a.RTTMs, b.RTTMs) && a.Model == b.Model && a.Device == b.Device
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (w *jsonWriter) server(srv *ServerSnap) {
	w.raw(`{"site":`)
	w.int(int64(srv.Site))
	w.raw(`,"device":`)
	w.str(srv.Device)
	w.raw(`,"base_cap":`)
	w.floats(srv.BaseCap[:])
	w.raw(`,"cap":`)
	w.floats(srv.Cap[:])
	w.raw(`,"used":`)
	w.floats(srv.Used[:])
	w.raw(`,"on":`)
	w.b = strconv.AppendBool(w.b, srv.On)
	if srv.Down {
		w.raw(`,"down":true`)
	}
	w.raw("}")
}

func (w *jsonWriter) liveApp(a *LiveAppSnap) {
	w.raw(`{"srv":`)
	w.int(int64(a.Srv))
	w.raw(`,"site":`)
	w.int(int64(a.Site))
	w.raw(`,"model":`)
	w.str(a.Model)
	w.raw(`,"device":`)
	w.str(a.Device)
	w.raw(`,"power_w":`)
	w.float(a.PowerW)
	w.raw(`,"rtt_ms":`)
	w.float(a.RTTMs)
	w.raw(`,"expires":`)
	w.int(int64(a.Expires))
	w.raw(`,"src_site":`)
	w.int(int64(a.SrcSite))
	w.raw("}")
}
