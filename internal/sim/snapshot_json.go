package sim

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"repro/internal/cluster"
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
// value is the same on its own. Items an earlier snapshot of the same
// engine encoded are copied from the engine's rowCache while they are
// unchanged; every other snapshot encodes to the same bytes without it.
//
// It is deliberately not MarshalJSON: json.Marshal would then call it
// and re-compact its output, and the tests would lose json.Marshal as
// the reflection oracle this encoder is held to.
func (s *Snapshot) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	c := s.rows
	if c == nil {
		c = new(rowCache) // nothing to reuse
	} else {
		c.mu.Lock()
		defer c.mu.Unlock()
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
	c.tables(&w, s)
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
	c.result(&w, &s.Result)
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

// result writes the result state, its monthly figures, count entries
// and load_ci samples through the cache: a past month's, a label's whose
// count did not move, and a sample already written, are rendered once.
func (c *rowCache) result(w *jsonWriter, r *ResultState) {
	w.raw(`{"carbon_g":`)
	w.float(r.CarbonG)
	w.raw(`,"energy_kwh":`)
	w.float(r.EnergyKWh)
	w.raw(`,"latency":`)
	w.summary(&r.Latency)
	w.raw(`,"monthly_carbon_g":[`)
	for m, g := range r.MonthlyCarbonG {
		w.comma(m)
		c.carbon.put(w, m, math.Float64bits(g), func() { w.float(g) })
	}
	w.raw(`],"monthly_latency":[`)
	for m := range r.MonthlyLatency {
		w.comma(m)
		s := &r.MonthlyLatency[m]
		c.summaries.put(w, m, summaryKey(s), func() { w.summary(s) })
	}
	w.raw("]")
	w.raw(`,"placements_by_city":`)
	w.counts(&c.cities, r.PlacementsByCity)
	w.raw(`,"monthly_placements":`)
	w.counts(&c.months, r.MonthlyPlacements)
	if len(r.LoadCI) > 0 {
		w.raw(`,"load_ci":[`)
		for i, ci := range r.LoadCI {
			w.comma(i)
			c.loadCI.put(w, i, math.Float64bits(ci), func() { w.float(ci) })
		}
		w.raw("]")
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

// counts writes a count list as encoding/json writes the map of its
// pairs: in its own order, which is the sorted one, each entry through l.
func (w *jsonWriter) counts(l *cachedList[countEntry], c metrics.Counts) {
	if c.Labels() == nil {
		w.raw("null")
		return
	}
	w.raw("{")
	for i := range c.Len() {
		w.comma(i)
		label, n := c.At(i)
		l.put(w, i, countEntry{label, n}, func() {
			w.str(label)
			w.raw(":")
			w.int(n)
		})
	}
	w.raw("}")
}

// rowCache holds the JSON of the items an engine's snapshots last
// encoded (server rows, live-app entries, the result's per-month
// summaries and monthly_carbon_g entries, its count entries and load_ci
// samples), each beside the value it was rendered from. Engine.Snapshot
// lends it to every snapshot it takes, and AppendJSON copies an item's
// bytes only while the item equals that value bit for bit. So the cache
// never has to be told that an item changed: a stale entry fails the
// comparison and is rendered afresh. A snapshot without a cache (decoded
// or built by hand) is encoded through a new one. An item whose encoding
// fails is never stored. mu serializes encodes of snapshots that share
// the cache.
type rowCache struct {
	mu sync.Mutex
	// live is the live table as last encoded, in its order; next is its
	// double buffer, spare the entries dropped from it, kept for their
	// buffers.
	live, next, spare []*cachedRow[LiveAppSnap]
	liveWork          tally
	// The other items, by position (monthly_carbon_g entries and load_ci
	// samples by bits).
	servers        cachedList[serverBits]
	summaries      cachedList[[5]uint64]
	carbon         cachedList[uint64]
	cities, months cachedList[countEntry]
	loadCI         cachedList[uint64]
}

// tally counts, for tests, the items encodes rendered and the ones they
// copied from the cache.
type tally struct{ rendered, copied int }

// cachedRow is one row and its JSON.
type cachedRow[T any] struct {
	val T
	b   []byte
}

// cachedList caches items by position, each beside a key that equals
// another only when the two items render the same bytes.
type cachedList[K comparable] struct {
	items []cachedRow[K]
	tally
}

// put writes item i: copied when the list holds key at i, else rendered
// by render and stored there under key.
func (l *cachedList[K]) put(w *jsonWriter, i int, key K, render func()) {
	if i < len(l.items) && l.items[i].val == key {
		w.b = append(w.b, l.items[i].b...)
		l.copied++
		return
	}
	off := len(w.b)
	render()
	if w.err != nil {
		return
	}
	l.rendered++
	switch {
	case i < len(l.items):
		l.items[i] = cachedRow[K]{key, append(l.items[i].b[:0], w.b[off:]...)}
	case i == len(l.items):
		l.items = append(l.items, cachedRow[K]{key, append([]byte(nil), w.b[off:]...)})
	}
}

// countEntry is a count entry as a cache key.
type countEntry struct {
	label string
	n     int64
}

// summaryKey is a summary as a cache key: its fields, floats as their
// bits (0 and -0 render differently, and NaN equals nothing).
func summaryKey(s *metrics.SummaryState) [5]uint64 {
	return [5]uint64{uint64(s.N), math.Float64bits(s.Sum), math.Float64bits(s.Min), math.Float64bits(s.Max), math.Float64bits(s.SumSquares)}
}

// serverBits is a server row as a cache key (serverKey), floats as
// their bits.
type serverBits struct {
	site     int
	device   string
	on, down bool
	bits     [3][len(cluster.Resources{})]uint64
}

func serverKey(s *ServerSnap) serverBits {
	k := serverBits{site: s.Site, device: s.Device, on: s.On, down: s.Down}
	for i, r := range [3]*cluster.Resources{&s.BaseCap, &s.Cap, &s.Used} {
		for j, f := range r {
			k.bits[i][j] = math.Float64bits(f)
		}
	}
	return k
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
// forward scan from the last hit (tallied in liveWork).
func (c *rowCache) tables(w *jsonWriter, s *Snapshot) {
	w.raw(`,"servers":`)
	if s.Servers == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for j := range s.Servers {
			w.comma(j)
			srv := &s.Servers[j]
			c.servers.put(w, j, serverKey(srv), func() { w.server(srv) })
		}
		w.raw("]")
	}
	w.raw(`,"live":`)
	if s.Live == nil {
		w.raw("null")
		return
	}
	cur, next := c.live, c.next[:0]
	w.raw("[")
	k := 0 // cur[k:] have not been passed yet
	for i := range s.Live {
		a := &s.Live[i]
		w.comma(i)
		if h := findLive(cur[k:min(k+liveScan, len(cur))], a); h >= 0 {
			h += k
			w.b = append(w.b, cur[h].b...)
			c.liveWork.copied++
			c.spare = append(c.spare, cur[k:h]...)
			next = append(next, cur[h])
			k = h + 1
			continue
		}
		off := len(w.b)
		w.liveApp(a)
		if w.err == nil {
			c.liveWork.rendered++
			r := c.spareRow()
			r.val, r.b = *a, append(r.b[:0], w.b[off:]...)
			next = append(next, r)
		}
	}
	w.raw("]")
	c.spare = append(c.spare, cur[k:]...)
	clear(cur)
	c.live, c.next = next, cur[:0]
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

// sameLive reports whether two live-app entries are equal bit for bit,
// and so render the same bytes: floats compare by their bits, since 0
// and -0 render differently and NaN equals nothing.
func sameLive(a, b *LiveAppSnap) bool {
	return a.Expires == b.Expires && a.Srv == b.Srv && a.Site == b.Site && a.SrcSite == b.SrcSite &&
		sameFloat(a.PowerW, b.PowerW) && sameFloat(a.RTTMs, b.RTTMs) && a.Model == b.Model && a.Device == b.Device
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
