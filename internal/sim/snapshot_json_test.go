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
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/rng"
)

// filler sets a value and everything under it by reflection over its
// type: every string to str, every float to f, every other scalar to a
// non-zero value (or to zero with zero set, which reaches every nested
// omitempty), every slice to two elements and every map to two keys (or
// both to non-nil and empty), every pointer to a new filled value. A
// field added to Snapshot later is filled too, so AppendJSON has to
// encode it.
type filler struct {
	str         string
	f           float64
	empty, zero bool
}

var timeType = reflect.TypeOf(time.Time{})

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
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(time.Date(2021, 3, 4, 5, 6, 7, 8, time.UTC)))
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
		checkAppendJSON(t, "live table", liveTable(t, pool, 2000, seed))
	}
	s = liveTable(t, pool, 2000, 4)
	s.Live[1000].RTTMs = math.NaN()
	checkAppendJSON(t, "live table NaN", s)

	// Keys lent beside the result maps are used only when they are the
	// maps' keys: a state whose maps changed after Result.State (as
	// shard.MergeResults changes its copy) is still sorted here.
	r := counterResult()
	for _, l := range []string{"b", "a", "c/1", "c/0"} {
		r.PlacementsByCity.Inc(l, 1)
		r.MonthlyPlacements.Inc(l, 2)
	}
	for name, mutate := range map[string]func(m map[string]int64){
		"added":    func(m map[string]int64) { m["0"] = 1 },
		"replaced": func(m map[string]int64) { delete(m, "a"); m["d"] = 1 },
		"deleted":  func(m map[string]int64) { delete(m, "c/1") },
		"renamed":  func(m map[string]int64) { delete(m, "c/0"); m["a0"] = 1 },
	} {
		st := r.State()
		mutate(st.PlacementsByCity)
		mutate(st.MonthlyPlacements)
		checkAppendJSON(t, "stale keys "+name, &Snapshot{Result: st})
	}
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

// liveTable is a filled snapshot whose live table holds n apps with
// power and RTT drawn from pool by a seeded source.
func liveTable(t *testing.T, pool []float64, n int, seed int64) *Snapshot {
	s := filled(t, filler{str: "a", f: 2.5})
	src := rng.NewSource(seed)
	pick := func() float64 { return pool[src.Uint64()%uint64(len(pool))] }
	s.Live = make([]LiveAppSnap, n)
	for i := range s.Live {
		s.Live[i] = LiveAppSnap{Srv: i % 7, Site: i % 3, Model: "m", Device: "d", PowerW: pick(), RTTMs: pick(), Expires: i, SrcSite: i % 5}
	}
	return s
}

// counterResult is a Result with empty placement counters.
func counterResult() *Result {
	return &Result{PlacementsByCity: metrics.NewCounter(), MonthlyPlacements: metrics.NewCounter()}
}

// TestSnapshotKeepsLentLabels holds the counters' cached label order to
// the snapshots it is lent to: a snapshot taken before new labels (a
// month rollover among them) and a deletion still encodes to its own
// json.Marshal bytes, the ones it had when taken, with its lent keys
// unwritten; and a later snapshot restores to counters with the same
// labels and counts.
func TestSnapshotKeepsLentLabels(t *testing.T) {
	r := counterResult()
	inc := func(city string, month int) {
		r.PlacementsByCity.Inc(city, 1)
		r.MonthlyPlacements.Inc(city+"/"+strconv.Itoa(month), 1)
	}
	for _, c := range []string{"Paris", "Berlin", "Amsterdam", "Paris", "Rome"} {
		inc(c, 0)
	}
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
		snap               *Snapshot
		bytes              []byte
		cityKeys, monthKey []string
	}
	take := func() taken {
		t.Helper()
		s := &Snapshot{Result: r.State()}
		if want := slices.Sorted(maps.Keys(s.Result.PlacementsByCity)); !slices.Equal(s.Result.cityKeys, want) {
			t.Fatalf("State lent city keys %v, want %v", s.Result.cityKeys, want)
		}
		if want := slices.Sorted(maps.Keys(s.Result.MonthlyPlacements)); !slices.Equal(s.Result.monthKeys, want) {
			t.Fatalf("State lent month keys %v, want %v", s.Result.monthKeys, want)
		}
		return taken{s, encode(s), slices.Clone(s.Result.cityKeys), slices.Clone(s.Result.monthKeys)}
	}
	a := take()
	inc("Paris", 1) // month rollover: a new label for a known city
	inc("Oslo", 1)
	inc("Rome", 0)
	rollover := take()
	r.PlacementsByCity.Delete("Berlin")
	r.MonthlyPlacements.Delete("Amsterdam/0")
	b := take()
	// Deleting the first label rebuilds a shorter cache: written over the
	// old one it would leave a lent slice holding a duplicate.
	r.PlacementsByCity.Delete("Amsterdam")
	r.MonthlyPlacements.Delete("Berlin/0")
	c := take()
	for name, s := range map[string]taken{"A": a, "rollover": rollover, "B": b, "C": c} {
		if got := encode(s.snap); !bytes.Equal(got, s.bytes) {
			t.Errorf("snapshot %s re-encodes to\n%s\nwant\n%s", name, got, s.bytes)
		}
		if !slices.Equal(s.snap.Result.cityKeys, s.cityKeys) || !slices.Equal(s.snap.Result.monthKeys, s.monthKey) {
			t.Errorf("snapshot %s: lent keys were written: %v %v, taken as %v %v", name,
				s.snap.Result.cityKeys, s.snap.Result.monthKeys, s.cityKeys, s.monthKey)
		}
	}
	// B restores to counters equal to the ones it was taken from, C to
	// the live ones.
	checkRestore := func(name string, st ResultState, cities, months map[string]int64) {
		t.Helper()
		restored, err := st.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			got  *metrics.Counter
			want map[string]int64
		}{{restored.PlacementsByCity, cities}, {restored.MonthlyPlacements, months}} {
			labels := pair.got.Labels()
			if want := slices.Sorted(maps.Keys(pair.want)); !slices.Equal(labels, want) {
				t.Errorf("%s restores to labels %v, want %v", name, labels, want)
			}
			for _, l := range labels {
				if pair.got.Get(l) != pair.want[l] {
					t.Errorf("%s restores %s to %d, want %d", name, l, pair.got.Get(l), pair.want[l])
				}
			}
		}
	}
	checkRestore("B", b.snap.Result, b.snap.Result.PlacementsByCity, b.snap.Result.MonthlyPlacements)
	checkRestore("C", c.snap.Result, r.PlacementsByCity.State(), r.MonthlyPlacements.State())
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

// TestRowEqualityCoversEveryField perturbs each field of a server row and
// a live entry in turn: the cache's equality must see every change, or
// a row added a field to would be copied with the field's old bytes.
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
		return sameServer(a.Addr().Interface().(*ServerSnap), b.Addr().Interface().(*ServerSnap))
	})
	check(new(LiveAppSnap), func(a, b reflect.Value) bool {
		return sameLive(a.Addr().Interface().(*LiveAppSnap), b.Addr().Interface().(*LiveAppSnap))
	})
}
