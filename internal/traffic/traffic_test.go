package traffic

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
	_ "time/tzdata" // America/New_York without relying on the host's zoneinfo
)

var testStart = time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC) // a Monday

func testSources() []Source {
	return []Source{
		{City: "Miami", Weight: 6, Lon: -80.2},
		{City: "Orlando", Weight: 2.7, Lon: -81.4},
		{City: "Tampa", Weight: 3.2, Lon: -82.5},
	}
}

func mustGen(t *testing.T, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg, testStart, testSources())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Seed: 1, RPS: 0}, testStart, testSources()); err == nil {
		t.Error("zero RPS accepted")
	}
	if _, err := NewGenerator(Config{Seed: 1, RPS: 10}, testStart, nil); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := NewGenerator(Config{Seed: 1, RPS: 10}, testStart,
		[]Source{{City: "A", Weight: 0}}); err == nil {
		t.Error("zero total weight accepted")
	}
	// A NaN or infinite weight made every share NaN: each source drew
	// math.MinInt64 requests.
	for _, w := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := NewGenerator(Config{Seed: 1, RPS: 10}, testStart,
			[]Source{{City: "A", Weight: 1}, {City: "B", Weight: w}}); err == nil {
			t.Errorf("weight %g accepted", w)
		}
	}
	if _, err := ScenarioByName("tsunami"); err == nil {
		t.Error("unknown scenario name accepted")
	}
	for _, name := range []string{"steady", "diurnal", "flash-crowd"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.String() != name {
			t.Errorf("round-trip %s -> %s", name, s)
		}
	}
}

// TestConfigRejectsUnroutableRates: a NaN or infinite RPS, or a peak
// hourly mean past 2^53, made every Poisson draw
// convert to math.MinInt64, so the router skipped each source and a run
// served nothing without an error. NewGenerator must refuse them; the
// last rows are the largest configurations that still fit.
func TestConfigRejectsUnroutableRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{RPS: nan}, false},
		{Config{RPS: inf}, false},
		{Config{RPS: -inf}, false},
		{Config{RPS: 1e16}, false},
		{Config{RPS: 2.1e11, Scenario: FlashCrowd}, false}, // × the multiplier 8
		{Config{RPS: 1.6e12, Scenario: FlashCrowd}, false}, // past 2^53 only with the multiplier
		{Config{RPS: 1.6e12, Scenario: Diurnal}, true},
		{Config{RPS: 2e11, Scenario: FlashCrowd}, true},
	} {
		tc.cfg.Seed = 1
		g, err := NewGenerator(tc.cfg, testStart, testSources())
		if (err == nil) != tc.ok {
			t.Errorf("%+v: err = %v, want ok=%t", tc.cfg, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		for h := 0; h < 48; h++ {
			for i, n := range g.Slice(h) {
				if n <= 0 {
					t.Fatalf("%+v: hour %d source %d drew %d requests", tc.cfg, h, i, n)
				}
			}
		}
	}
}

// refRate is Rate as the generator computed it before the diurnal table:
// the clock hour and weekday of start + hour and both sines, per call.
func refRate(g *Generator, i, hour int) float64 {
	s := g.sources[i]
	base := g.cfg.RPS * s.Weight / g.totalW
	if g.cfg.Scenario == Steady {
		return base * 1
	}
	ts := g.start.Add(time.Duration(hour) * time.Hour)
	local := math.Mod(float64(ts.Hour())+s.Lon/15+48, 24)
	f := 1 + 0.40*math.Sin(2*math.Pi*(local-14)/24) + 0.12*math.Sin(4*math.Pi*(local-2)/24)
	if dow := ts.Weekday(); dow == time.Saturday || dow == time.Sunday {
		f *= 0.82
	}
	if f < 0.05 {
		f = 0.05
	}
	if g.cfg.Scenario == FlashCrowd && i == g.flashIdx &&
		hour%flashEveryHours < flashDurationHours {
		f *= flashMultiplier
	}
	return base * f
}

// TestDiurnalTableMatchesFormula holds the diurnal table to refRate bit
// for bit, for every hour of a leap year, every scenario and every source,
// from a UTC start and from a New York one (two DST switches, so a clock
// hour repeats and one is skipped). AppendSlice must draw what Slice does.
func TestDiurnalTableMatchesFormula(t *testing.T) {
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	sources := append(testSources(),
		Source{City: "Tokyo", Weight: 1.5, Lon: 139.7},
		Source{City: "Honolulu", Weight: 0.4, Lon: -157.9},
		Source{City: "Greenwich", Weight: 1, Lon: 0},
		Source{City: "Suva", Weight: 0.2, Lon: 178.4})
	const hours = 366 * 24
	for _, start := range []time.Time{
		time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 1, 1, 0, 0, 0, 0, ny),
	} {
		for _, scn := range []Scenario{Steady, Diurnal, FlashCrowd} {
			g, err := NewGenerator(Config{Seed: 5, Scenario: scn, RPS: 900}, start, sources)
			if err != nil {
				t.Fatal(err)
			}
			var buf []int64
			for h := 0; h < hours; h++ {
				for i := range sources {
					if got, want := g.rate(g.clockRow(h), i, h), refRate(g, i, h); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s hour %d source %s: Rate %v, formula %v", start.Location(), scn, h, sources[i].City, got, want)
					}
				}
				buf = g.AppendSlice(buf[:0], h)
				if want := g.Slice(h); !reflect.DeepEqual(buf, want) {
					t.Fatalf("%s %s hour %d: AppendSlice %v, Slice %v", start.Location(), scn, h, buf, want)
				}
			}
		}
	}
}

func TestSliceDeterministicAndRandomAccess(t *testing.T) {
	cfg := Config{Seed: 42, Scenario: Diurnal, RPS: 500}
	a, b := mustGen(t, cfg), mustGen(t, cfg)
	// Draw hours in different orders; each hour must be identical.
	for _, h := range []int{5, 0, 99, 5, 7} {
		if !reflect.DeepEqual(a.Slice(h), b.Slice(h)) {
			t.Fatalf("hour %d differs between generators", h)
		}
	}
	first := a.Slice(17)
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(a.Slice(17), first) {
			t.Fatal("repeated draws of one hour differ")
		}
	}
	// A different seed must actually change the stream.
	cfg.Seed = 43
	c := mustGen(t, cfg)
	same := true
	for h := 0; h < 24; h++ {
		if !reflect.DeepEqual(a.Slice(h), c.Slice(h)) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change did not alter the stream")
	}
}

func TestConcurrentSlicesMatchSerial(t *testing.T) {
	// Slices drawn concurrently (run under -race) must equal the serial
	// stream — the generator holds no mutable state.
	g := mustGen(t, Config{Seed: 7, Scenario: FlashCrowd, RPS: 1000})
	const hours = 200
	serial := make([][]int64, hours)
	for h := 0; h < hours; h++ {
		serial[h] = g.Slice(h)
	}
	parallel := make([][]int64, hours)
	var wg sync.WaitGroup
	for h := 0; h < hours; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			parallel[h] = g.Slice(h)
		}(h)
	}
	wg.Wait()
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("concurrent slice draws diverged from serial")
	}
}

func TestSteadyMeanMatchesRPS(t *testing.T) {
	g := mustGen(t, Config{Seed: 1, Scenario: Steady, RPS: 800})
	var total int64
	hours := 24 * 7
	for h := 0; h < hours; h++ {
		for _, n := range g.Slice(h) {
			total += n
		}
	}
	mean := float64(total) / float64(hours) / 3600
	if mean < 760 || mean > 840 {
		t.Errorf("steady mean rate %.1f rps, want ~800", mean)
	}
}

func TestWeightsSplitDemand(t *testing.T) {
	g := mustGen(t, Config{Seed: 5, Scenario: Steady, RPS: 600})
	totals := make([]int64, 3)
	for h := 0; h < 24*7; h++ {
		for i, n := range g.Slice(h) {
			totals[i] += n
		}
	}
	// Miami (weight 6) should see roughly twice Tampa's (3.2) traffic.
	ratio := float64(totals[0]) / float64(totals[2])
	if ratio < 1.6 || ratio > 2.2 {
		t.Errorf("Miami/Tampa ratio %.2f, want ~1.88", ratio)
	}
}

// weekdayCounts sums source i's drawn requests by UTC hour of day over
// the weekdays of the given number of weeks from testStart (a Monday).
func weekdayCounts(g *Generator, i, weeks int) [24]float64 {
	var by [24]float64
	for h := 0; h < weeks*7*24; h++ {
		if day := h / 24 % 7; day < 5 {
			by[h%24] += float64(g.Slice(h)[i])
		}
	}
	return by
}

// TestDiurnalShape states where the diurnal shape peaks. The shape is
// 1 + 0.40·sin(a) + 0.12·sin(2a) with a = 2π(local − 14)/24; the 12-hour
// harmonic pulls the 20:00-local crest of the first term forward to the
// root of 0.40·cos(a) + 0.24·cos(2a) = 0, at local solar time ≈ 18.4 h.
// Local solar time is UTC + Lon/15, so in UTC each source's busiest hour
// sits −Lon/15 hours from that instant. The drawn weekday counts must put
// the busiest UTC hour within an hour of it: hours further out draw ≥ 3 %
// less, and over four weeks the per-hour totals hold ~10^7 requests
// (Poisson noise ~0.03 %).
func TestDiurnalShape(t *testing.T) {
	c := (-0.40 + math.Sqrt(0.40*0.40+8*0.24*0.24)) / (4 * 0.24) // cos(a*) from 0.48c² + 0.40c − 0.24 = 0
	peakLocal := 14 + 24*math.Acos(c)/(2*math.Pi)
	if peakLocal < 18.3 || peakLocal > 18.5 {
		t.Fatalf("analytic peak %.3f h local", peakLocal)
	}
	sources := []Source{
		{City: "SanFrancisco", Weight: 1, Lon: -122.4},
		{City: "Miami", Weight: 1, Lon: -80.2},
		{City: "London", Weight: 1, Lon: -0.1},
		{City: "Berlin", Weight: 1, Lon: 13.4},
		{City: "Tokyo", Weight: 1, Lon: 139.7},
		{City: "Sydney", Weight: 1, Lon: 151.2},
	}
	for _, seed := range []int64{9, 10, 11} {
		g, err := NewGenerator(Config{Seed: seed, Scenario: Diurnal, RPS: 6000}, testStart, sources)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			by := weekdayCounts(g, i, 4)
			best := 0
			for h := range by {
				if by[h] > by[best] {
					best = h
				}
			}
			want := math.Mod(peakLocal-s.Lon/15+48, 24)
			if d := math.Abs(float64(best) - want); math.Min(d, 24-d) > 1 {
				t.Errorf("seed %d %s (lon %.1f): busiest UTC hour %d, want within 1 h of %.2f", seed, s.City, s.Lon, best, want)
			}
		}
	}
}

// TestWeekendFactor states the weekend dip: Saturday and Sunday draw 0.82
// of what the same clock hours draw on weekdays. Over 26 weeks the
// weekend sum holds ~10^9 requests, so the ratio's Poisson standard
// error is ~5·10^-5; the check allows four of them.
func TestWeekendFactor(t *testing.T) {
	for _, seed := range []int64{9, 10, 11} {
		g := mustGen(t, Config{Seed: seed, Scenario: Diurnal, RPS: 1000})
		var weekend, weekdays float64 // weekdays: Tuesday and Wednesday, the same 48 clock hours
		for h := 0; h < 26*7*24; h++ {
			var n float64
			for _, c := range g.Slice(h) {
				n += float64(c)
			}
			switch h / 24 % 7 {
			case 1, 2:
				weekdays += n
			case 5, 6:
				weekend += n
			}
		}
		ratio := weekend / weekdays
		se := ratio * math.Sqrt(1/weekend+1/weekdays)
		if math.Abs(ratio-0.82) > 4*se {
			t.Errorf("seed %d: weekend/weekday %.6f, want 0.82 ± %.6f", seed, ratio, 4*se)
		}
		// The expected rates carry the factor exactly.
		if got := g.rate(g.clockRow(5*24+1), 0, 5*24+1) / g.rate(g.clockRow(1), 0, 1); math.Abs(got-0.82) > 1e-12 {
			t.Errorf("Saturday/Monday rate ratio %v, want 0.82", got)
		}
	}
}

// TestFlashCrowdBurst states a burst's mass: over the burst windows the
// flash source (Miami, the heaviest) draws (multiplier − 1) × its base
// mass more than its base mass, where the base mass is the Diurnal rate
// summed over the window's hours (duration × base rate, hour by hour).
// The tolerance is four Poisson standard deviations of the boosted total,
// and outside the windows the source draws its base mass to the same
// tolerance.
func TestFlashCrowdBurst(t *testing.T) {
	const mult, every, dur = flashMultiplier, flashEveryHours, flashDurationHours
	for _, seed := range []int64{3, 4, 5} {
		g := mustGen(t, Config{Seed: seed, Scenario: FlashCrowd, RPS: 1000})
		if g.flashIdx != 0 {
			t.Fatalf("burst source %s, want the heaviest, Miami", testSources()[g.flashIdx].City)
		}
		base := mustGen(t, Config{Seed: seed, Scenario: Diurnal, RPS: 1000})
		var inCount, inBase, outCount, outBase float64
		for h := 0; h < 60*every; h++ {
			n, m := float64(g.Slice(h)[0]), base.rate(base.clockRow(h), 0, h)*3600
			if h%every < dur {
				inCount, inBase = inCount+n, inBase+m
			} else {
				outCount, outBase = outCount+n, outBase+m
			}
		}
		if excess, want, tol := inCount-inBase, (mult-1)*inBase, 4*math.Sqrt(mult*inBase); math.Abs(excess-want) > tol {
			t.Errorf("seed %d: burst excess %.0f, want %.0f ± %.0f", seed, excess, want, tol)
		}
		if tol := 4 * math.Sqrt(outBase); math.Abs(outCount-outBase) > tol {
			t.Errorf("seed %d: off-burst mass %.0f, want %.0f ± %.0f", seed, outCount, outBase, tol)
		}
		// Non-flash sources are unaffected by the window.
		for _, h := range []int{0, 2, 72, 74} {
			if g.rate(g.clockRow(h), 1, h) != base.rate(base.clockRow(h), 1, h) || g.rate(g.clockRow(h), 2, h) != base.rate(base.clockRow(h), 2, h) {
				t.Errorf("flash burst leaked into a non-flash source at hour %d", h)
			}
		}
	}
}

func TestPoissonCountRegimes(t *testing.T) {
	g := mustGen(t, Config{Seed: 21, Scenario: Steady, RPS: 0.002}) // tiny lambda/hour
	var total int64
	for h := 0; h < 2000; h++ {
		for _, n := range g.Slice(h) {
			total += n
		}
	}
	// lambda = 7.2/hour split over three sources; expect ~14400 total.
	if total < 12000 || total > 17000 {
		t.Errorf("small-rate Poisson total %d, want ~14400", total)
	}
}

func TestHourSeedsDecorrelatedAcrossBaseSeeds(t *testing.T) {
	// Regression for the base^hash(hour) derivation: two workloads with
	// different base seeds got per-hour seed streams at a constant
	// XOR-distance (seedA[h]^seedB[h] == baseA^baseB for every hour), so
	// sweeps differing only in seed drew correlated arrival processes.
	// Hashing base and hour together breaks the shared offset.
	const hours = 512
	xors := map[int64]bool{}
	for h := 0; h < hours; h++ {
		xors[hourSeed(42, h)^hourSeed(43, h)] = true
	}
	if len(xors) < hours/2 {
		t.Fatalf("hourSeed(42,h)^hourSeed(43,h) took only %d distinct values over %d hours (constant-offset correlation)", len(xors), hours)
	}

	// Per-hour seeds within one base stay distinct (random access relies
	// on it).
	seen := map[int64]bool{}
	for h := 0; h < hours; h++ {
		s := hourSeed(42, h)
		if seen[s] {
			t.Fatalf("hourSeed(42,%d) collides with an earlier hour", h)
		}
		seen[s] = true
	}
}
