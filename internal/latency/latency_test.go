package latency

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

func cityPoint(t *testing.T, reg *CityRegistry, name string) geo.Point {
	t.Helper()
	c, ok := reg.ByName(name)
	if !ok {
		t.Fatalf("city %q missing from registry", name)
	}
	return c.Location
}

func TestTable1FloridaLatencies(t *testing.T) {
	// Table 1a reports one-way latencies among Florida cities between
	// ~1.9 ms (Orlando-Tampa) and ~7.2 ms (Miami-Tallahassee). Our model
	// must land in those bands.
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	m := USModel()
	cases := []struct {
		a, b     string
		want     float64
		tolerate float64
	}{
		{"Jacksonville", "Miami", 3.64, 1.5},
		{"Jacksonville", "Tampa", 5.32, 3.2},
		{"Miami", "Orlando", 4.5, 1.8},
		{"Miami", "Tampa", 3.37, 1.5},
		{"Miami", "Tallahassee", 7.2, 2.8},
		{"Orlando", "Tampa", 1.86, 1.0},
		{"Tampa", "Tallahassee", 4.14, 2.0},
	}
	for _, c := range cases {
		got := m.OneWayMs(cityPoint(t, reg, c.a), cityPoint(t, reg, c.b))
		if math.Abs(got-c.want) > c.tolerate {
			t.Errorf("%s-%s one-way = %.2f ms, paper reports %.2f (±%.1f)", c.a, c.b, got, c.want, c.tolerate)
		}
	}
}

func TestTable1CentralEULatencies(t *testing.T) {
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	m := EuropeModel()
	cases := []struct {
		a, b     string
		want     float64
		tolerate float64
	}{
		{"Bern", "Graz", 8.78, 3.0},
		{"Bern", "Lyon", 6.28, 3.5},
		{"Bern", "Munich", 3.985, 1.8},
		{"Graz", "Lyon", 16.22, 8.0},
		{"Graz", "Munich", 8.36, 4.5},
		{"Lyon", "Milan", 9.34, 5.5},
		{"Milan", "Munich", 8.65, 4.5},
	}
	for _, c := range cases {
		got := m.OneWayMs(cityPoint(t, reg, c.a), cityPoint(t, reg, c.b))
		if math.Abs(got-c.want) > c.tolerate {
			t.Errorf("%s-%s one-way = %.2f ms, paper reports %.2f (±%.1f)", c.a, c.b, got, c.want, c.tolerate)
		}
	}
}

func TestRTTIsTwiceOneWay(t *testing.T) {
	m := DefaultModel()
	a := geo.Point{Lat: 40, Lon: -74}
	b := geo.Point{Lat: 34, Lon: -118}
	if got, want := m.RTTMs(a, b), 2*m.OneWayMs(a, b); got != want {
		t.Errorf("RTT = %v, want %v", got, want)
	}
}

func TestLatencyMonotoneInDistance(t *testing.T) {
	m := DefaultModel()
	origin := geo.Point{Lat: 40, Lon: 0}
	prev := 0.0
	for d := 1.0; d <= 20; d++ {
		l := m.OneWayMs(origin, geo.Point{Lat: 40, Lon: d})
		if l <= prev {
			t.Fatalf("latency not increasing with distance at lon %v", d)
		}
		prev = l
	}
}

func TestSampleOneWayJitter(t *testing.T) {
	m := DefaultModel()
	m.JitterStd = 0.1
	a := geo.Point{Lat: 40, Lon: 0}
	b := geo.Point{Lat: 41, Lon: 1}
	rng := rand.New(rand.NewSource(1))
	base := m.OneWayMs(a, b)
	varied := false
	for i := 0; i < 50; i++ {
		v := m.SampleOneWayMs(a, b, rng)
		if v < m.OverheadMs {
			t.Fatalf("jittered latency %v below overhead floor", v)
		}
		if v != base {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter produced no variation")
	}
	m.JitterStd = 0
	if got := m.SampleOneWayMs(a, b, rng); got != base {
		t.Errorf("zero jitter sample = %v, want %v", got, base)
	}
}

func TestCityRegistryCounts(t *testing.T) {
	us, eu := USCities(), EuropeCities()
	if len(us) != 64 {
		t.Errorf("US cities = %d, want 64 (paper's WonderNetwork coverage)", len(us))
	}
	if len(eu) != 64 {
		t.Errorf("Europe cities = %d, want 64", len(eu))
	}
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 128 {
		t.Errorf("registry = %d cities, want 128", reg.Len())
	}
}

func TestCityRegistryNearest(t *testing.T) {
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// A point near Zurich must resolve to Zurich, not Bern.
	c, d, ok := reg.Nearest(geo.Point{Lat: 47.4, Lon: 8.5})
	if !ok || c.Name != "Zurich" {
		t.Errorf("Nearest(near Zurich) = %v, %v", c.Name, ok)
	}
	if d > 20 {
		t.Errorf("distance to Zurich = %.1f km", d)
	}
}

func TestCityRegistryDuplicateRejected(t *testing.T) {
	cs := []City{
		{"X", "US", geo.Point{Lat: 1, Lon: 1}, 1},
		{"X", "US", geo.Point{Lat: 2, Lon: 2}, 1},
	}
	if _, err := NewCityRegistry(cs); err == nil {
		t.Error("duplicate city names should be rejected")
	}
}

func TestMatrix(t *testing.T) {
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Miami", "Orlando", "Tampa"}
	pts := make([]geo.Point, len(names))
	for i, n := range names {
		pts[i] = cityPoint(t, reg, n)
	}
	mx, err := NewMatrix(DefaultModel(), names, pts)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Len() != 3 {
		t.Fatalf("matrix len = %d", mx.Len())
	}
	for i := 0; i < 3; i++ {
		if mx.OneWayMs(i, i) != 0 {
			t.Errorf("diagonal[%d] = %v, want 0", i, mx.OneWayMs(i, i))
		}
		for j := 0; j < 3; j++ {
			if mx.OneWayMs(i, j) != mx.OneWayMs(j, i) {
				t.Errorf("matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	v, err := mx.ByName("Miami", "Tampa")
	if err != nil {
		t.Fatal(err)
	}
	if v != mx.OneWayMs(0, 2) {
		t.Errorf("ByName = %v, want %v", v, mx.OneWayMs(0, 2))
	}
	if _, err := mx.ByName("Miami", "Nowhere"); err == nil {
		t.Error("unknown city should error")
	}
	lo, mean, hi := mx.Stats()
	if lo <= 0 || mean < lo || hi < mean {
		t.Errorf("stats ordering violated: %v %v %v", lo, mean, hi)
	}
}

func TestMatrixMismatchedInput(t *testing.T) {
	if _, err := NewMatrix(DefaultModel(), []string{"a"}, nil); err == nil {
		t.Error("mismatched names/points should error")
	}
}

func TestShaperDelays(t *testing.T) {
	s := NewShaper()
	g0 := s.Gen()
	s.SetDelay("a", "b", 5*time.Millisecond)
	g1 := s.Gen()
	if g1 == g0 {
		t.Error("SetDelay did not advance the generation")
	}
	s.SetScale(0)
	s.SetJitter(0.1)
	s.OneWay("a", "b")
	if s.Gen() != g1 {
		t.Error("scale, jitter or a read advanced the generation; the delay table did not change")
	}
	if got := s.OneWay("a", "b"); got != 5*time.Millisecond {
		t.Errorf("OneWay = %v", got)
	}
	if got := s.OneWay("b", "a"); got != 5*time.Millisecond {
		t.Errorf("OneWay reversed = %v, want symmetric", got)
	}
	if got := s.OneWay("a", "a"); got != 0 {
		t.Errorf("self delay = %v, want 0", got)
	}
	if got := s.OneWay("a", "c"); got != 0 {
		t.Errorf("unknown pair delay = %v, want 0", got)
	}
}

func TestShaperDelaySleeps(t *testing.T) {
	s := NewShaper()
	s.SetDelay("a", "b", 20*time.Millisecond)
	start := time.Now()
	d, err := s.Delay(context.Background(), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if d != 20*time.Millisecond {
		t.Errorf("emulated delay = %v, want 20ms", d)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("Delay slept only %v", elapsed)
	}
}

func TestShaperScaleZeroSkipsSleep(t *testing.T) {
	s := NewShaper()
	s.SetDelay("a", "b", time.Hour)
	s.SetScale(0)
	start := time.Now()
	d, err := s.Delay(context.Background(), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Hour {
		t.Errorf("emulated = %v, want 1h (unscaled)", d)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("scale=0 should not sleep")
	}
}

func TestShaperContextCancel(t *testing.T) {
	s := NewShaper()
	s.SetDelay("a", "b", time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Delay(ctx, "a", "b")
	if err == nil {
		t.Error("cancelled Delay should return ctx error")
	}
}

func TestShaperFromMatrix(t *testing.T) {
	reg, err := DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Bern", "Munich"}
	pts := []geo.Point{cityPoint(t, reg, "Bern"), cityPoint(t, reg, "Munich")}
	mx, err := NewMatrix(DefaultModel(), names, pts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShaper()
	g0 := s.Gen()
	s.ConfigureFromMatrix(mx)
	if s.Gen() == g0 {
		t.Error("ConfigureFromMatrix did not advance the generation")
	}
	want := time.Duration(mx.OneWayMs(0, 1) * float64(time.Millisecond))
	if got := s.OneWay("Bern", "Munich"); got != want {
		t.Errorf("shaper delay = %v, want %v", got, want)
	}
}
