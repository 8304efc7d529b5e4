package carbon

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
)

func testZone(t *testing.T, id string) *Zone {
	t.Helper()
	for _, z := range CuratedZones() {
		if z.ID == id {
			return z
		}
	}
	t.Fatalf("no curated zone %q", id)
	return nil
}

func TestGeneratorDeterminism(t *testing.T) {
	z := testZone(t, "DE-MUC")
	a := NewGenerator(7).Intensity(z)
	b := NewGenerator(7).Intensity(z)
	if a.Len() != b.Len() {
		t.Fatal("length mismatch across identical runs")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("non-deterministic at hour %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestGeneratorSeedSensitivity(t *testing.T) {
	z := testZone(t, "DE-MUC")
	a := NewGenerator(7).Intensity(z)
	b := NewGenerator(8).Intensity(z)
	same := 0
	for i := range a.Values {
		if a.Values[i] == b.Values[i] {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorYearLength(t *testing.T) {
	g := NewGenerator(1)
	if g.HoursInYear() != 8760 {
		t.Errorf("2023 hours = %d, want 8760", g.HoursInYear())
	}
	g.Year = 2024 // leap year
	if g.HoursInYear() != 8784 {
		t.Errorf("2024 hours = %d, want 8784", g.HoursInYear())
	}
	z := testZone(t, "CH-BRN")
	g.Year = 2023
	if got := g.Intensity(z).Len(); got != 8760 {
		t.Errorf("trace length = %d, want 8760", got)
	}
}

func TestIntensityWithinPhysicalBounds(t *testing.T) {
	g := NewGenerator(3)
	for _, z := range CuratedZones() {
		s := g.Intensity(z)
		lo, hi := s.Min(), s.Max()
		if lo < 0 {
			t.Errorf("%s: negative intensity %v", z.ID, lo)
		}
		if hi > Coal.EmissionFactor() {
			t.Errorf("%s: intensity %v exceeds pure-coal bound", z.ID, hi)
		}
	}
}

func TestMixesMeetDemandApproximately(t *testing.T) {
	g := NewGenerator(5)
	z := testZone(t, "US-FL-MIA")
	mixes := g.Mixes(z)
	short := 0
	for _, m := range mixes {
		// Demand is >= 0.5 by construction; generation should cover at
		// least half of mean demand every hour given firm capacity >= 1.
		if m.Total() < 0.45 {
			short++
		}
	}
	if frac := float64(short) / float64(len(mixes)); frac > 0.01 {
		t.Errorf("%.1f%% of hours severely under-supplied", frac*100)
	}
}

func TestPaperSpreadRatios(t *testing.T) {
	// The headline mesoscale ratios from Figure 3: yearly max/min mean
	// carbon intensity of 2.7x in the West US and 10.8x in Central
	// Europe. We assert the calibrated generator lands near those.
	g := NewGenerator(42)
	ratio := func(ids []string) float64 {
		lo, hi := math.Inf(1), 0.0
		for _, id := range ids {
			m := g.Intensity(testZone(t, id)).Mean()
			lo = math.Min(lo, m)
			hi = math.Max(hi, m)
		}
		return hi / lo
	}
	west := ratio([]string{"US-SW-KNG", "US-SW-LAS", "US-SW-FLG", "US-SW-PHX", "US-SW-SAN"})
	if west < 2.0 || west > 3.5 {
		t.Errorf("West US yearly ratio = %.2f, paper reports 2.7", west)
	}
	eu := ratio([]string{"CH-BRN", "DE-MUC", "FR-LYO", "AT-GRZ", "IT-MIL"})
	if eu < 7 || eu > 15 {
		t.Errorf("Central EU yearly ratio = %.2f, paper reports 10.8", eu)
	}
}

func TestPolandDirtierThanOntario(t *testing.T) {
	// Figure 1b: Poland's coal grid is far above Ontario's
	// nuclear+hydro grid.
	g := NewGenerator(42)
	pl := g.Intensity(testZone(t, "PL")).Mean()
	on := g.Intensity(testZone(t, "CA-ON")).Mean()
	if pl < 5*on {
		t.Errorf("Poland (%.0f) should be >5x Ontario (%.0f)", pl, on)
	}
}

func TestSolarZoneDiurnalPattern(t *testing.T) {
	// A solar-heavy zone must be cleaner at midday than at midnight on
	// average (the Figure 4a pattern for Kingman).
	g := NewGenerator(42)
	s := g.Intensity(testZone(t, "US-SW-KNG"))
	// Mean intensity per UTC hour of day.
	var prof, n [24]float64
	for i, v := range s.Values {
		h := s.Start.Add(time.Duration(i) * time.Hour).Hour()
		prof[h] += v
		n[h]++
	}
	// Kingman is at longitude -114 (~UTC-7): local noon ~ 19:00 UTC,
	// local midnight ~ 07:00 UTC.
	noon := prof[19] / n[19]
	midnight := prof[7] / n[7]
	if noon >= midnight {
		t.Errorf("solar zone midday CI (%.0f) should be below midnight CI (%.0f)", noon, midnight)
	}
}

func TestWindSeasonality(t *testing.T) {
	// Wind-heavy zones should be cleaner in winter (higher wind CF).
	z := &Zone{
		ID: "TEST-WIND", Name: "windy", Region: RegionEurope,
		Location: geo.Point{Lat: 52, Lon: 5},
		Capacity: zcap(0.05, 1.3, 0.05, 0, 0, 1.1, 0, 0),
	}
	g := NewGenerator(42)
	s := g.Intensity(z)
	months := s.MonthlyMeans()
	if len(months) != 12 {
		t.Fatalf("got %d months", len(months))
	}
	jan := months[0].Mean
	jul := months[6].Mean
	if jan >= jul {
		t.Errorf("wind zone january CI (%.0f) should be below july (%.0f)", jan, jul)
	}
}

func TestSolarFactorNightZero(t *testing.T) {
	for doy := 1; doy <= 365; doy += 30 {
		if got := solarFactor(0, doy, 40, 1); got != 0 {
			t.Errorf("midnight solar (doy %d) = %v, want 0", doy, got)
		}
	}
}

func TestSolarFactorSummerLongerThanWinter(t *testing.T) {
	var summerHours, winterHours int
	for h := 0; h < 24; h++ {
		if solarFactor(h, 172, 45, 1) > 0 {
			summerHours++
		}
		if solarFactor(h, 355, 45, 1) > 0 {
			winterHours++
		}
	}
	if summerHours <= winterHours {
		t.Errorf("summer daylight hours (%d) should exceed winter (%d) at 45N", summerHours, winterHours)
	}
}

func TestDispatchCurtailsRenewables(t *testing.T) {
	z := &Zone{
		ID: "TEST-CURTAIL", Location: geo.Point{Lat: 40, Lon: 0},
		Capacity: zcap(5, 5, 0, 0, 0, 1.2, 0, 0),
	}
	m := dispatch(z, 1.0, 1.0, 1.0, 0.75)
	if m.Total() > 1.0+1e-9 {
		t.Errorf("generation %.3f exceeds demand 1.0; renewables not curtailed", m.Total())
	}
	if m[Gas] != 0 {
		t.Errorf("gas dispatched (%.3f) despite surplus renewables", m[Gas])
	}
}

func TestDispatchFossilProportionalSplit(t *testing.T) {
	z := &Zone{
		ID: "TEST-FOSSIL", Location: geo.Point{Lat: 40, Lon: 0},
		Capacity: zcap(0, 0, 0, 0, 0, 0.6, 0, 0.3),
	}
	m := dispatch(z, 0.6, 0, 0, 0.75)
	if math.Abs(m[Gas]-0.4) > 1e-9 || math.Abs(m[Coal]-0.2) > 1e-9 {
		t.Errorf("fossil split gas=%.3f coal=%.3f, want 0.4/0.2", m[Gas], m[Coal])
	}
}

func TestTraceSetRoundTrip(t *testing.T) {
	reg, err := NewRegistry(CuratedZones())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(9)
	ts := g.GenerateTraces(reg)
	if len(ts.ZoneIDs()) != reg.Len() {
		t.Fatalf("trace set has %d zones, want %d", len(ts.ZoneIDs()), reg.Len())
	}
	for _, z := range reg.Zones() {
		if ts.Trace(z.ID) == nil {
			t.Errorf("missing trace for %s", z.ID)
		}
	}
	if ts.Trace("nope") != nil {
		t.Error("unknown zone should have nil trace")
	}
}

// TestMixesDependOnInputs: the seed, a leap year and the capacity vector
// each change the trace.
func TestMixesDependOnInputs(t *testing.T) {
	z := testZone(t, "DE-MUC")
	base := NewGenerator(1).Mixes(z)
	if slices.Equal(base, NewGenerator(2).Mixes(z)) {
		t.Error("a different seed gave the same trace")
	}
	leap := &Generator{Seed: 1, Year: 2024}
	if got := leap.Mixes(z); len(got) <= len(base) {
		t.Errorf("leap year trace has %d hours, want more than %d", len(got), len(base))
	}
	zc := *z
	zc.Capacity[Coal] = 5
	if slices.Equal(base, NewGenerator(1).Mixes(&zc)) {
		t.Error("a different capacity gave the same trace")
	}
}

// TestMixesConcurrent runs one generator from many goroutines; under
// -race it checks that Mixes shares no mutable state between calls.
func TestMixesConcurrent(t *testing.T) {
	g := NewGenerator(99)
	z := testZone(t, "DE-MUC")
	want := g.Mixes(z)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !slices.Equal(g.Mixes(z), want) {
				t.Error("concurrent Mixes diverged")
			}
		}()
	}
	wg.Wait()
}
