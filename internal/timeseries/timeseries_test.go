package timeseries

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNewAndBasicAccess(t *testing.T) {
	s := New(t0, 48)
	if s.Len() != 48 {
		t.Fatalf("Len = %d, want 48", s.Len())
	}
	if got := s.End(); !got.Equal(t0.Add(48 * time.Hour)) {
		t.Errorf("End = %v, want %v", got, t0.Add(48*time.Hour))
	}
	s.Values[5] = 42
	v, err := s.At(t0.Add(5*time.Hour + 30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("At(5h30m) = %v, want 42 (hour bucket)", v)
	}
}

func TestAtOutOfRange(t *testing.T) {
	s := New(t0, 24)
	if _, err := s.At(t0.Add(-time.Hour)); err == nil {
		t.Error("At before start should error")
	}
	if _, err := s.At(t0.Add(24 * time.Hour)); err == nil {
		t.Error("At past end should error")
	}
	if _, err := s.At(t0.Add(23 * time.Hour)); err != nil {
		t.Errorf("At last hour errored: %v", err)
	}
}

func TestSlice(t *testing.T) {
	s := New(t0, 100)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	sub, err := s.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 10 {
		t.Fatalf("sub len = %d, want 10", sub.Len())
	}
	if !sub.Start.Equal(t0.Add(10 * time.Hour)) {
		t.Errorf("sub start = %v", sub.Start)
	}
	if sub.Values[0] != 10 {
		t.Errorf("sub[0] = %v, want 10", sub.Values[0])
	}
	if _, err := s.Slice(-1, 5); err == nil {
		t.Error("negative slice start should error")
	}
	if _, err := s.Slice(5, 101); err == nil {
		t.Error("slice past end should error")
	}
	if _, err := s.Slice(7, 6); err == nil {
		t.Error("inverted slice should error")
	}
}

func TestStats(t *testing.T) {
	s := &Series{Start: t0, Values: []float64{1, 2, 3, 4}}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	s := New(t0, 0)
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty series stats should be NaN")
	}
}

func TestMonthlyMeans(t *testing.T) {
	// Two months: 31 days of January at value 10, 28 days of February at 20.
	n := (31 + 28) * 24
	s := New(t0, n)
	for i := range s.Values {
		if i < 31*24 {
			s.Values[i] = 10
		} else {
			s.Values[i] = 20
		}
	}
	ms := s.MonthlyMeans()
	if len(ms) != 2 {
		t.Fatalf("got %d months, want 2", len(ms))
	}
	if ms[0].Month != time.January || ms[0].Mean != 10 {
		t.Errorf("jan = %+v", ms[0])
	}
	if ms[1].Month != time.February || ms[1].Mean != 20 {
		t.Errorf("feb = %+v", ms[1])
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile(vals, 1.5)) {
		t.Error("Quantile out of range should be NaN")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedianAndStddev(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 4, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.5}, {3, 0.75}, {4, 1}}
	if got := c.Points(10); !reflect.DeepEqual(got, want) {
		t.Errorf("Points = %v, want %v", got, want)
	}
	if got := c.Points(2); !reflect.DeepEqual(got, []CDFPoint{{1, 0.25}, {4, 1}}) {
		t.Errorf("Points(2) = %v, want the least and greatest samples", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 100
	}
	prev := CDFPoint{Value: math.Inf(-1)}
	for _, p := range NewCDF(samples).Points(50) {
		if p.Value < prev.Value || p.Prob <= prev.Prob {
			t.Fatalf("CDF not monotone at %+v after %+v", p, prev)
		}
		prev = p
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Value < pts[j].Value }) {
		t.Error("CDF points not sorted by value")
	}
	if pts[len(pts)-1].Prob != 1 {
		t.Errorf("last point prob = %v, want 1", pts[len(pts)-1].Prob)
	}
	if NewCDF(nil).Points(5) != nil {
		t.Error("Points on empty CDF should be nil")
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		got := Quantile(vals, q)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
