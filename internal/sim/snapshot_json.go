package sim

import (
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strconv"

	"repro/internal/metrics"
)

// AppendJSON appends the snapshot's JSON encoding to dst: exactly the
// bytes json.Marshal(s) produces, or json.Marshal's error with dst
// returned unchanged. internal/checkpoint writes engine envelopes
// through it. The fields every snapshot carries — the scalars, the
// server and live-app tables and the result accumulators — are written
// here without reflection; the optional ones a snapshot rarely carries
// (forecast errors, the backlog, the exchange mailboxes, fault and
// traffic stats, the flight recorder) are handed to json.Marshal, whose
// encoding of a nested value is the same on its own.
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
	w.raw(`,"servers":`)
	if s.Servers == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range s.Servers {
			srv := &s.Servers[i]
			w.comma(i)
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
		w.raw("]")
	}
	w.raw(`,"live":`)
	if s.Live == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range s.Live {
			a := &s.Live[i]
			w.comma(i)
			w.raw(`{"srv":`)
			w.int(int64(a.Srv))
			w.raw(`,"site":`)
			w.int(int64(a.Site))
			w.raw(`,"model":`)
			w.str(a.Model)
			w.raw(`,"device":`)
			w.str(a.Device)
			w.raw(`,"power_w":`)
			w.memoFloat(a.PowerW)
			w.raw(`,"rtt_ms":`)
			w.memoFloat(a.RTTMs)
			w.raw(`,"expires":`)
			w.int(int64(a.Expires))
			w.raw(`,"src_site":`)
			w.int(int64(a.SrcSite))
			w.raw("}")
		}
		w.raw("]")
	}
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
// the caller checks once at the end. Only the last write may take back
// its own bytes (float's exponent, counts' fallback), so memo's offsets
// stay valid.
type jsonWriter struct {
	b    []byte
	err  error
	memo floatMemo
}

// floatMemo remembers where in the output a float64's rendering already
// sits, keyed by its bits: the live table repeats a few power and RTT
// values across hundreds of apps, and a repeat is copied instead of
// rendered again. It is direct-mapped (a value evicts the slot's
// previous one) and lives for one AppendJSON call.
type floatMemo [1 << floatMemoBits]struct {
	bits   uint64
	off, n int // w.b[off:off+n]; n == 0 marks an empty slot
}

const floatMemoBits = 7

// floatMemoSlot is the memo slot of a float64's bits (Fibonacci hashing).
func floatMemoSlot(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> (64 - floatMemoBits) }

// memoFloat writes f as float does, copying its rendering from earlier
// in the output when the memo holds it.
func (w *jsonWriter) memoFloat(f float64) {
	bits := math.Float64bits(f)
	e := &w.memo[floatMemoSlot(bits)]
	if e.n > 0 && e.bits == bits {
		w.b = append(w.b, w.b[e.off:e.off+e.n]...)
		return
	}
	off := len(w.b)
	w.float(f)
	if n := len(w.b) - off; n > 0 {
		e.bits, e.off, e.n = bits, off, n
	}
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
