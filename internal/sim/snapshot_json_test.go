package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
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
	s.Result.Traffic.CarbonG, s.Recorder = math.NaN(), nil
	checkAppendJSON(t, "nested error", s)
}
