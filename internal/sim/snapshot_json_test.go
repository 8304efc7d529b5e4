package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/rng"
)

// filler sets a value and everything under it by reflection over its
// type: every string to str, every float to f, every other scalar to a
// non-zero value (or to zero with zero set, which reaches every nested
// omitempty), every slice to two elements and every map and count list
// to two keys (or each to non-nil and empty), every pointer to a new
// filled value. A field added to Snapshot later is filled too, so
// AppendJSON has to encode it.
type filler struct {
	str         string
	f           float64
	empty, zero bool
}

var (
	timeType   = reflect.TypeOf(time.Time{})
	countsType = reflect.TypeOf(metrics.Counts{})
)

func (fl filler) fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(fl.str)
	case reflect.Bool:
		v.SetBool(!fl.zero)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if !fl.zero {
			v.SetInt(-7)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if !fl.zero {
			v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(fl.f)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fl.fill(t, v.Index(i), path+"["+strconv.Itoa(i)+"]")
		}
	case reflect.Slice:
		n := 2
		if fl.empty {
			n = 0
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fl.fill(t, v.Index(i), path+"["+strconv.Itoa(i)+"]")
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		if fl.empty {
			return
		}
		// Two keys out of bytewise order, so the encoder has to sort.
		for _, k := range []string{fl.str + "b", fl.str + "a"} {
			key := reflect.New(v.Type().Key()).Elem()
			key.SetString(k)
			val := reflect.New(v.Type().Elem()).Elem()
			fl.fill(t, val, path+"["+k+"]")
			v.SetMapIndex(key, val)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fl.fill(t, v.Elem(), path)
	case reflect.Struct:
		switch v.Type() {
		case timeType:
			v.Set(reflect.ValueOf(time.Date(2021, 3, 4, 5, 6, 7, 8, time.UTC)))
			return
		case countsType:
			c := metrics.NewCounts()
			if !fl.empty {
				n := int64(-7)
				if fl.zero {
					n = 0
				}
				c.Add(fl.str+"b", n)
				c.Add(fl.str+"a", n)
			}
			v.Set(reflect.ValueOf(c))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fl.fill(t, v.Field(i), path+"."+f.Name)
			}
		}
	default:
		t.Fatalf("%s: cannot fill a %s; teach the filler and Snapshot.AppendJSON this kind", path, v.Type())
	}
}

// filled is a Snapshot with every field, at every depth, set by fl.
func filled(t *testing.T, fl filler) *Snapshot {
	var s Snapshot
	fl.fill(t, reflect.ValueOf(&s).Elem(), "Snapshot")
	return &s
}

// checkAppendJSON requires AppendJSON to append json.Marshal's bytes to
// a prefix, or to fail with json.Marshal's error and return the prefix
// untouched.
func checkAppendJSON(t *testing.T, name string, s *Snapshot) {
	t.Helper()
	want, werr := json.Marshal(s)
	prefix := []byte("prefix:")
	got, gerr := s.AppendJSON(prefix)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: AppendJSON error %v, json.Marshal error %v", name, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Errorf("%s: failed AppendJSON returned %q, want the prefix alone", name, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("%s: AppendJSON differs from json.Marshal\ngot:  %.400s\nwant: %s%.400s", name, got, prefix, want)
	}
}

// TestAppendJSONMatchesMarshal holds the hand-written encoder to the
// reflection path on snapshots filled to every depth: plain, with every
// string hostile, with every float at an edge of encoding/json's float
// rules, with slices and maps empty but non-nil and with every scalar
// zero, and as the zero and the nil snapshot.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	checkAppendJSON(t, "nil", nil)
	checkAppendJSON(t, "zero", &Snapshot{})
	checkAppendJSON(t, "plain", filled(t, filler{str: "a", f: 2.5}))
	checkAppendJSON(t, "empty", filled(t, filler{str: "a", f: 2.5, empty: true}))
	checkAppendJSON(t, "zero scalars", filled(t, filler{zero: true}))
	for _, s := range []string{
		"", `"`, `\`, "<", ">", "&", "  ", "bad\xff", "\x00\x1f\t\n", "日本", "\x7f", " ~",
	} {
		checkAppendJSON(t, strconv.Quote(s), filled(t, filler{str: s, f: 1}))
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e300, 1e21, 1e21 - 65536, 1e20, 5e-324,
		math.MaxFloat64, 0.1 + 0.2, 1000000000, -123456789, 1 << 53, 1<<53 - 1, -(1<<53 - 1), 1 << 60, 1.5e-300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkAppendJSON(t, strconv.FormatFloat(f, 'g', -1, 64), filled(t, filler{str: "a", f: f}))
	}
	// The first failing field in encoding order is the error reported.
	s := filled(t, filler{str: "a", f: 1})
	s.Live[1].RTTMs, s.Result.CarbonG = math.Inf(-1), math.NaN()
	checkAppendJSON(t, "first error", s)
	s = filled(t, filler{str: "a", f: 1})
	s.Result.Traffic.CarbonG = math.NaN()
	checkAppendJSON(t, "nested error", s)

	// Large seeded live tables whose power and RTT values repeat and sit
	// at the edges of the float rules.
	pool := floatPool()
	for seed := int64(1); seed <= 3; seed++ {
		checkAppendJSON(t, "live table", filledLive(t, pool, 2000, seed))
	}
	s = filledLive(t, pool, 2000, 4)
	s.Live[1000].RTTMs = math.NaN()
	checkAppendJSON(t, "live table NaN", s)
}

// floatPool is the float pool of liveTable: zeros of both signs,
// integers, values at the edges of encoding/json's 'e' rule, and 300
// distinct fractions.
func floatPool() []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, -7, 150, 1 << 53, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, 1e20, 5e-324, 0.1 + 0.2}
	src := rng.NewSource(99)
	for range 300 {
		pool = append(pool, float64(src.Uint64()%100000)/997)
	}
	return pool
}

// filledLive is a filled snapshot whose live table holds n apps with
// power and RTT drawn from pool by a seeded source.
func filledLive(t *testing.T, pool []float64, n int, seed int64) *Snapshot {
	s := filled(t, filler{str: "a", f: 2.5})
	src := rng.NewSource(seed)
	pick := func() float64 { return pool[src.Uint64()%uint64(len(pool))] }
	s.Live = make([]LiveAppSnap, n)
	for i := range s.Live {
		s.Live[i] = LiveAppSnap{Srv: i % 7, Site: i % 3, Model: "m", Device: "d", PowerW: pick(), RTTMs: pick(), Expires: i, SrcSite: i % 5}
	}
	return s
}

// counterResult is a Result with empty placement counts.
func counterResult() *Result {
	return &Result{PlacementsByCity: metrics.NewCounts(), MonthlyPlacements: metrics.NewCounts()}
}

// checkCountsJSON holds a count list's JSON to encoding/json's map path,
// on a map built apart from the list. The snapshot encoder's rendering
// (through an empty cache, then twice through c, the second time copied
// from it) and MarshalJSON must be json.Marshal(want)'s bytes, and those
// must decode as the map decoder decodes them (checkCountsDecode).
func checkCountsJSON(t *testing.T, name string, c *cachedList[countEntry], got metrics.Counts, want map[string]int64) {
	t.Helper()
	wantB, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*cachedList[countEntry]{new(cachedList[countEntry]), c, c} {
		var w jsonWriter
		w.counts(l, got)
		if w.err != nil || !bytes.Equal(w.b, wantB) {
			t.Errorf("%s: encoder writes %q (error %v), json.Marshal of the map %q", name, w.b, w.err, wantB)
		}
	}
	if b, err := got.MarshalJSON(); err != nil || !bytes.Equal(b, wantB) {
		t.Errorf("%s: MarshalJSON %q (error %v), json.Marshal of the map %q", name, b, err, wantB)
	}
	checkCountsDecode(t, wantB)
}

// checkCountsDecode requires a count list to decode in as encoding/json
// decodes it into a map[string]int64: the same error or none, the same
// pairs (nil for null), sorted.
func checkCountsDecode(t *testing.T, in []byte) {
	t.Helper()
	var want map[string]int64
	werr := json.Unmarshal(in, &want)
	var got metrics.Counts
	gerr := json.Unmarshal(in, &got)
	if (werr != nil) != (gerr != nil) {
		t.Errorf("%q: decodes with error %v, the map decoder with %v", in, gerr, werr)
		return
	}
	if werr == nil && ((want == nil) != (got.Labels() == nil) || !maps.Equal(maps.Collect(got.All()), want) ||
		!slices.IsSorted(got.Labels())) {
		t.Errorf("%q: decodes to %v, the map decoder to %v", in, got, want)
	}
}

// TestCountsMatchMapJSON is the count lists' oracle test: lists built in
// every label order, with labels encoding/json escapes, nil and empty,
// encode as the map of the same pairs; and a list decodes what the map
// decoder decodes, in any order and with repeated labels (the last
// wins), and refuses what it refuses.
func TestCountsMatchMapJSON(t *testing.T) {
	c := new(cachedList[countEntry])
	checkCountsJSON(t, "nil", c, metrics.Counts{}, nil)
	checkCountsJSON(t, "empty", c, metrics.NewCounts(), map[string]int64{})
	labels := []string{"Paris", "<b>", "a&b", `"q"`, `back\slash`, "\x00\x1f\t\n", "bad\xff", "", "日本", "\x7f", "\u2028", "Paris/10", "Paris/9"}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, {12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, {7, 0, 12, 3, 9, 1, 5, 11, 2, 8, 4, 10, 6}} {
		list, m := metrics.NewCounts(), map[string]int64{}
		for k, i := range order {
			n := int64(k*k) - 40
			list.Add(labels[i], n)
			m[labels[i]] += n
			checkCountsJSON(t, fmt.Sprintf("order %v, %d added", order, k+1), c, list, m)
		}
		list.Add("Paris", 3) // an existing label: a count moves, the labels stay
		m["Paris"] += 3
		checkCountsJSON(t, fmt.Sprintf("order %v, moved", order), c, list, m)
	}
	for _, in := range []string{
		`null`, `{}`, `{"b":1,"a":2}`, `{"a":1,"a":2}`, `{"a":2,"b":0,"a":-1}`, ` { "\u003c" : 5 } `,
		`{"bad\xff":1}`, "{\"bad\xff\":1,\"\":2}", `{"a":-9223372036854775808}`, `{"a":9223372036854775807}`,
		`{"a":1.5}`, `{"a":1e3}`, `{"a":9223372036854775808}`, `{"a":"1"}`, `{"a":null}`, `[1]`, `"a"`, `1`, `{"a":1`, `{"a":1}x`,
	} {
		checkCountsDecode(t, []byte(in))
	}
}

// TestSnapshotKeepsLentLabels holds the result's count lists to the
// snapshots they are lent to: a snapshot taken before new labels (a month
// rollover among them, and labels that sort before existing ones) still
// encodes to its own json.Marshal bytes, the ones it had when taken, with
// its lent labels unwritten, though every snapshot went through one row
// cache; and a later snapshot restores to lists with the same labels and
// counts.
func TestSnapshotKeepsLentLabels(t *testing.T) {
	r := counterResult()
	inc := func(city string, month int) {
		r.PlacementsByCity.Add(city, 1)
		r.MonthlyPlacements.Add(city+"/"+strconv.Itoa(month), 1)
		r.Placed++
	}
	for _, c := range []string{"Paris", "Berlin", "Amsterdam", "Paris", "Rome"} {
		inc(c, 0)
	}
	rows := new(rowCache)
	encode := func(s *Snapshot) []byte {
		t.Helper()
		checkAppendJSON(t, "snapshot", s)
		b, err := s.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	type taken struct {
		snap                *Snapshot
		bytes               []byte
		cityKeys, monthKeys []string
	}
	take := func() taken {
		t.Helper()
		s := &Snapshot{Result: r.State(), rows: rows}
		cities, months := s.Result.PlacementsByCity.Labels(), s.Result.MonthlyPlacements.Labels()
		if !slices.IsSorted(cities) || !slices.IsSorted(months) {
			t.Fatalf("State lent unsorted labels %v %v", cities, months)
		}
		return taken{s, encode(s), slices.Clone(cities), slices.Clone(months)}
	}
	a := take()
	inc("Paris", 1) // month rollover: a new label for a known city
	inc("Oslo", 1)
	inc("Rome", 0)
	rollover := take()
	inc("Aachen", 11) // sorts first: every cached entry moves one place
	inc("Berlin", 0)
	b := take()
	for name, s := range map[string]taken{"A": a, "rollover": rollover, "B": b} {
		if got := encode(s.snap); !bytes.Equal(got, s.bytes) {
			t.Errorf("snapshot %s re-encodes to\n%s\nwant\n%s", name, got, s.bytes)
		}
		if !slices.Equal(s.snap.Result.PlacementsByCity.Labels(), s.cityKeys) || !slices.Equal(s.snap.Result.MonthlyPlacements.Labels(), s.monthKeys) {
			t.Errorf("snapshot %s: lent labels were written: %v %v, taken as %v %v", name,
				s.snap.Result.PlacementsByCity.Labels(), s.snap.Result.MonthlyPlacements.Labels(), s.cityKeys, s.monthKeys)
		}
	}
	// A and B restore to the lists they were taken with.
	for name, st := range map[string]ResultState{"A": a.snap.Result, "B": b.snap.Result} {
		restored, err := st.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.PlacementsByCity, st.PlacementsByCity) || !reflect.DeepEqual(restored.MonthlyPlacements, st.MonthlyPlacements) {
			t.Errorf("%s restores to %v %v, want %v %v", name, restored.PlacementsByCity, restored.MonthlyPlacements,
				st.PlacementsByCity, st.MonthlyPlacements)
		}
	}
	if !reflect.DeepEqual(b.snap.Result.PlacementsByCity, r.PlacementsByCity) {
		t.Errorf("B holds %v, the result %v", b.snap.Result.PlacementsByCity, r.PlacementsByCity)
	}
}

// TestRowCacheEveryEpoch encodes every epoch's snapshot of each golden
// config and each checkpoint mode (redeploys, traffic, and a script that
// degrades, crashes and scales out) through its engine's row cache, and
// holds each to json.Marshal. The previous snapshot must still encode to
// its own bytes after the next one went through the cache.
func TestRowCacheEveryEpoch(t *testing.T) {
	w := testWorld(t)
	cases := goldenCases()
	for m, cfg := range checkpointModes(t, w) {
		cases["checkpoint/"+[]string{"classic", "redeploy", "traffic", "faults"}[m]] = cfg
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := NewEngine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			var prev *Snapshot
			var prevBytes []byte
			unchanged := 0
			for !e.Done() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				s := e.Snapshot()
				checkAppendJSON(t, fmt.Sprintf("epoch %d", e.Epoch()), s)
				if t.Failed() {
					return
				}
				if got := len(e.rows.live); got != len(s.Live) {
					t.Fatalf("epoch %d: cache holds %d live entries, the snapshot %d", e.Epoch(), got, len(s.Live))
				}
				if prev != nil {
					if again, _ := prev.AppendJSON(nil); !bytes.Equal(again, prevBytes) {
						t.Fatalf("epoch %d: the previous snapshot re-encodes to other bytes", e.Epoch())
					}
					for i := range s.Live {
						if slices.ContainsFunc(prev.Live, func(a LiveAppSnap) bool { return sameLive(&a, &s.Live[i]) }) {
							unchanged++
						}
					}
				}
				prev = s
				if prevBytes, err = s.AppendJSON(nil); err != nil {
					t.Fatal(err)
				}
			}
			if unchanged == 0 {
				t.Fatal("no live entry survived an epoch: the cache had nothing to reuse")
			}
		})
	}
}

// TestCheckpointWorkCounted counts, per encode of checkpoint_resume's
// shape (Europe, 4 392 h, a redeploy every 24 h, checkpointed after every
// Step), the rows, result sections (per-month summaries and
// monthly_carbon_g entries) and count entries the row cache rendered and
// copied, and the bytes hashed per envelope. It pins the steady state: a
// result section is rendered exactly in the epochs its value changed,
// which is at most the current month's summary and carbon entry; a count
// entry exactly when its label or count at its place moved; and every
// server row that changed is rendered. The placement counts must
// conserve Placed every day of the six months. The totals are logged
// (go test -v) for the profile notes.
func TestCheckpointWorkCounted(t *testing.T) {
	cfg := DefaultConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 4392
	cfg.RedeployEveryHours = 24
	cfg.MigrationDataMB, cfg.MigrationJPerMB = 500, 0.2
	e, err := NewEngine(cfg, testWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	c := e.rows
	work := func() [3]tally {
		return [3]tally{{c.servers.rendered + c.liveWork.rendered, c.servers.copied + c.liveWork.copied},
			{c.summaries.rendered + c.carbon.rendered, c.summaries.copied + c.carbon.copied},
			{c.cities.rendered + c.months.rendered, c.cities.copied + c.months.copied}}
	}
	// moved counts the places at which cur's list differs from prev's.
	moved := func(prev, cur metrics.Counts) int {
		n := 0
		for i := range cur.Len() {
			l, v := cur.At(i)
			if i >= prev.Len() {
				n++
			} else if pl, pv := prev.At(i); pl != l || pv != v {
				n++
			}
		}
		return n
	}
	var (
		prev   *Snapshot
		total  [3]tally
		hashed int
		buf    bytes.Buffer
	)
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		s := e.Snapshot()
		if e.Epoch()%24 == 0 {
			// The fold keeps every month's tally, across month boundaries.
			if err := checkPlacementCounts(e.Finish()); err != nil {
				t.Fatalf("epoch %d: %v", e.Epoch(), err)
			}
		}
		before := work()
		buf.Reset()
		if err := checkpoint.Encode(&buf, "engine", s); err != nil {
			t.Fatal(err)
		}
		// The envelope is its prefix up to "payload":, the payload (which
		// seal hashes, once), then "}\n".
		hashed += buf.Len() - bytes.Index(buf.Bytes(), []byte(`,"payload":`)) - len(`,"payload":`) - len("}\n")
		after := work()
		var d [3]tally
		for k := range d {
			d[k] = tally{after[k].rendered - before[k].rendered, after[k].copied - before[k].copied}
			total[k].rendered += d[k].rendered
			total[k].copied += d[k].copied
		}
		r := &s.Result
		wantSections, wantEntries, wantServers := 24, r.PlacementsByCity.Len()+r.MonthlyPlacements.Len(), len(s.Servers)
		if prev != nil {
			p := &prev.Result
			wantSections, wantServers = 0, 0
			for m := range 12 {
				if summaryKey(&p.MonthlyLatency[m]) != summaryKey(&r.MonthlyLatency[m]) {
					wantSections++
				}
				if !sameFloat(p.MonthlyCarbonG[m], r.MonthlyCarbonG[m]) {
					wantSections++
				}
			}
			if wantSections > 2 {
				t.Fatalf("epoch %d: %d result sections changed, want at most the current month's two", e.Epoch(), wantSections)
			}
			wantEntries = moved(p.PlacementsByCity, r.PlacementsByCity) + moved(p.MonthlyPlacements, r.MonthlyPlacements)
			for j := range s.Servers {
				if j >= len(prev.Servers) || serverKey(&prev.Servers[j]) != serverKey(&s.Servers[j]) {
					wantServers++
				}
			}
		}
		if d[1].rendered != wantSections || d[1].rendered+d[1].copied != 24 {
			t.Fatalf("epoch %d: %d result sections rendered, %d copied; %d changed", e.Epoch(), d[1].rendered, d[1].copied, wantSections)
		}
		if entries := r.PlacementsByCity.Len() + r.MonthlyPlacements.Len(); d[2].rendered != wantEntries || d[2].rendered+d[2].copied != entries {
			t.Fatalf("epoch %d: %d count entries rendered, %d copied; %d moved of %d", e.Epoch(), d[2].rendered, d[2].copied, wantEntries, entries)
		}
		if rows := len(s.Servers) + len(s.Live); d[0].rendered < wantServers || d[0].rendered+d[0].copied != rows {
			t.Fatalf("epoch %d: %d rows rendered, %d copied; %d server rows changed, %d rows", e.Epoch(), d[0].rendered, d[0].copied, wantServers, rows)
		}
		prev = s
	}
	n := e.Epoch()
	for k, name := range []string{"rows", "result sections", "count entries"} {
		t.Logf("%-15s rendered %8d (%6.1f/encode)  copied %9d (%7.1f/encode)", name,
			total[k].rendered, float64(total[k].rendered)/float64(n), total[k].copied, float64(total[k].copied)/float64(n))
	}
	t.Logf("bytes hashed    %d per envelope (mean over %d)", hashed/n, n)
}

// TestLoadCIRenderedOnce checkpoints checkpointModes' traffic run, which
// collects load_ci, lengthened to 720 h, after every Step. Each encode
// must render exactly the samples new since the last one and copy the
// rest, and the envelope must stay json.Marshal's bytes (checked every
// 120 epochs, the last one included).
func TestLoadCIRenderedOnce(t *testing.T) {
	w := testWorld(t)
	cfg := checkpointModes(t, w)[2]
	if !cfg.CollectLoadCI {
		t.Fatal("fixture: the traffic mode does not collect load_ci")
	}
	cfg.Hours = 720
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	c := &e.rows.loadCI
	prev := 0
	var buf bytes.Buffer
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		s := e.Snapshot()
		before := c.tally
		buf.Reset()
		if err := checkpoint.Encode(&buf, "engine", s); err != nil {
			t.Fatal(err)
		}
		n := len(s.Result.LoadCI)
		if r, k := c.rendered-before.rendered, c.copied-before.copied; r != n-prev || k != prev {
			t.Fatalf("epoch %d: %d samples rendered, %d copied; %d new of %d", e.Epoch(), r, k, n-prev, n)
		}
		prev = n
		if e.Epoch()%120 == 0 {
			checkAppendJSON(t, fmt.Sprintf("epoch %d", e.Epoch()), s)
		}
	}
	t.Logf("load_ci: %d samples over %d encodes, %d rendered", prev, e.Epoch(), c.rendered)
}

// liveSnapshot steps a classic engine until it holds live apps and
// returns its snapshot, encoded once so the cache holds every row.
func liveSnapshot(t *testing.T) (*Engine, *Snapshot) {
	t.Helper()
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 48
	e, err := NewEngine(cfg, testWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 30 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Snapshot()
	if len(s.Live) < 3 || len(s.Servers) < 2 {
		t.Fatalf("fixture: %d live apps on %d servers", len(s.Live), len(s.Servers))
	}
	checkAppendJSON(t, "taken", s)
	return e, s
}

// TestRowCacheValidatesByValue changes a snapshot after Snapshot returned
// it and after its rows were cached: a server's usage, a live app's RTT
// flipped between 0 and -0 (equal under ==, rendered differently) and a
// model name. Each encode must still be json.Marshal's.
func TestRowCacheValidatesByValue(t *testing.T) {
	_, s := liveSnapshot(t)
	s.Servers[1].Used[0] += 0.5
	checkAppendJSON(t, "used", s)
	a := &s.Live[2]
	for _, rtt := range []float64{0, math.Copysign(0, -1), 0} {
		a.RTTMs = rtt
		checkAppendJSON(t, "rtt "+strconv.FormatFloat(rtt, 'g', -1, 64), s)
	}
	a.Model = "renamed<>"
	checkAppendJSON(t, "model", s)
}

// TestRowCacheStoresNoFailedRow encodes a snapshot whose live entry and
// server row cannot be encoded twice in a row: both encodes must fail
// with json.Marshal's error, and a valid value afterwards encodes
// correctly.
func TestRowCacheStoresNoFailedRow(t *testing.T) {
	_, s := liveSnapshot(t)
	a, srv := &s.Live[1], &s.Servers[0]
	power, used := a.PowerW, srv.Used[1]
	a.PowerW = math.NaN()
	checkAppendJSON(t, "NaN live entry", s)
	checkAppendJSON(t, "NaN live entry again", s)
	a.PowerW = power
	srv.Used[1] = math.Inf(1)
	checkAppendJSON(t, "Inf server row", s)
	checkAppendJSON(t, "Inf server row again", s)
	srv.Used[1] = used
	checkAppendJSON(t, "valid again", s)
}

// TestRowCacheConcurrentEncodes encodes two snapshots of one engine, taken
// epochs apart, from concurrent goroutines: each encode must be its own
// snapshot's json.Marshal bytes. Run under -race (make race).
func TestRowCacheConcurrentEncodes(t *testing.T) {
	e, a := liveSnapshot(t)
	for range 6 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	b := e.Snapshot()
	var wg sync.WaitGroup
	for g := range 4 {
		s := []*Snapshot{a, b}[g%2]
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, err := s.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: concurrent encode differs from json.Marshal (error %v)", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRowEqualityCoversEveryField perturbs each field of a server row, a
// live entry and a summary in turn: the cache's equality (a summary's
// key) must see every change, or an item added a field to would be
// copied with the field's old bytes.
func TestRowEqualityCoversEveryField(t *testing.T) {
	check := func(v any, same func(a, b reflect.Value) bool) {
		base := reflect.ValueOf(v).Elem()
		filler{str: "a", f: 2.5}.fill(t, base, base.Type().Name())
		for i := range base.NumField() {
			other := reflect.New(base.Type()).Elem()
			other.Set(base)
			f := other.Field(i)
			if f.Kind() == reflect.Array {
				f = f.Index(f.Len() - 1)
			}
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(math.Copysign(0, -1))
			default:
				t.Fatalf("%s.%s: teach this test and the cache's equality its kind", base.Type().Name(), base.Type().Field(i).Name)
			}
			if same(base, other) {
				t.Errorf("%s.%s: a changed value compares equal", base.Type().Name(), base.Type().Field(i).Name)
			}
		}
		if !same(base, base) {
			t.Errorf("%s: a value differs from itself", base.Type().Name())
		}
	}
	check(new(ServerSnap), func(a, b reflect.Value) bool {
		return serverKey(a.Addr().Interface().(*ServerSnap)) == serverKey(b.Addr().Interface().(*ServerSnap))
	})
	check(new(LiveAppSnap), func(a, b reflect.Value) bool {
		return sameLive(a.Addr().Interface().(*LiveAppSnap), b.Addr().Interface().(*LiveAppSnap))
	})
	check(new(metrics.SummaryState), func(a, b reflect.Value) bool {
		return summaryKey(a.Addr().Interface().(*metrics.SummaryState)) == summaryKey(b.Addr().Interface().(*metrics.SummaryState))
	})
}
