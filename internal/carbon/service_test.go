package carbon

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

func smallTraceSet(t *testing.T) (*TraceSet, *Registry) {
	t.Helper()
	reg, err := NewRegistry(CuratedZones())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(11)
	return g.GenerateTraces(reg), reg
}

func TestServiceCurrent(t *testing.T) {
	ts, _ := smallTraceSet(t)
	svc := NewService(ts, nil)
	now := ts.Start.Add(100 * time.Hour)
	v, err := svc.Current("DE-MUC", now)
	if err != nil {
		t.Fatal(err)
	}
	want := ts.Trace("DE-MUC").Values[100]
	if v != want {
		t.Errorf("Current = %v, want %v", v, want)
	}
	if _, err := svc.Current("nope", now); err == nil {
		t.Error("unknown zone should error")
	}
	if _, err := svc.Current("DE-MUC", ts.Start.Add(-time.Hour)); err == nil {
		t.Error("time before trace should error")
	}
}

func TestSeasonalNaiveForecast(t *testing.T) {
	// History with a perfect 24h cycle: two forecast days repeat it, so
	// their mean is the cycle's.
	vals := make([]float64, 24*7)
	for i := range vals {
		vals[i] = float64(i % 24)
	}
	got, err := SeasonalNaive{Period: 24}.Mean(vals, len(vals)-1, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got != 11.5 {
		t.Fatalf("mean of two cycles of 0..23 = %v, want 11.5", got)
	}
}

func TestSeasonalNaiveShortHistory(t *testing.T) {
	got, err := SeasonalNaive{Period: 24}.Mean([]float64{5, 6}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got < 5 || got > 6 {
		t.Errorf("short-history forecast mean %v, want one within the history's values", got)
	}
	for _, i := range []int{-1, 0} {
		if _, err := (SeasonalNaive{}).Mean(nil, i, 2); err == nil {
			t.Errorf("index %d of an empty trace should error", i)
		}
	}
}

func TestEWMAForecastFlat(t *testing.T) {
	got, err := EWMA{Alpha: 0.3}.Mean([]float64{10, 10, 10, 10}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("EWMA of constant series = %v, want 10", got)
	}
	if _, err := (EWMA{}).Mean([]float64{10}, 1, 5); err == nil {
		t.Error("index past the trace should error")
	}
}

func TestEWMAConvergesTowardRecent(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		if i < 50 {
			vals[i] = 0
		} else {
			vals[i] = 100
		}
	}
	got, _ := EWMA{Alpha: 0.3}.Mean(vals, len(vals)-1, 1)
	if got < 90 {
		t.Errorf("EWMA after step change = %v, want > 90", got)
	}
	// Only the history up to the index counts.
	if before, _ := (EWMA{Alpha: 0.3}).Mean(vals, 49, 1); before != 0 {
		t.Errorf("EWMA before the step = %v, want 0", before)
	}
}

func TestOracleForecastIsTruth(t *testing.T) {
	ts, _ := smallTraceSet(t)
	vals := ts.Trace("CH-BRN").Values
	got, err := Oracle{}.Mean(vals, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := timeseries.Mean(vals[51:56]); got != want {
		t.Fatalf("oracle mean = %v, want the truth %v", got, want)
	}
	// Past the end the last hour stands in for the missing ones.
	n := len(vals)
	got, err = Oracle{}.Mean(vals, n-2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := timeseries.Mean([]float64{vals[n-1], vals[n-1], vals[n-1]}); got != want {
		t.Fatalf("oracle mean at the trace's end = %v, want %v", got, want)
	}
}

// perHourForecast is the per-hour forecast EWMA's and Oracle's Mean
// average: the slices those forecasters once returned, kept here as the
// oracle Mean is bit-compared to through timeseries.Mean. (SeasonalNaive
// has its own, forecastMeanWalk.)
func perHourForecast(f Forecaster, trace []float64, i, horizon int) []float64 {
	out := make([]float64, horizon)
	switch f := f.(type) {
	case EWMA:
		level := trace[0]
		for _, v := range trace[1 : i+1] {
			level = f.Alpha*v + (1-f.Alpha)*level
		}
		for h := range out {
			out[h] = level
		}
	case Oracle:
		for h := range out {
			out[h] = trace[min(i+1+h, len(trace)-1)]
		}
	}
	return out
}

// TestForecasterMeansMatchPerHour holds EWMA's and Oracle's Mean to the
// mean of their per-hour forecasts, bit for bit, across histories shorter
// and longer than a day, horizons past the trace's end and the empty
// horizon (NaN).
func TestForecasterMeansMatchPerHour(t *testing.T) {
	ts, _ := smallTraceSet(t)
	vals := ts.Trace("DE-MUC").Values
	n := len(vals)
	for _, f := range []Forecaster{EWMA{Alpha: 0.3}, Oracle{}} {
		for _, i := range []int{0, 5, 23, 24, 500, n - 30, n - 1} {
			for _, horizon := range []int{0, 1, 24, 49} {
				got, err := f.Mean(vals, i, horizon)
				if err != nil {
					t.Fatal(err)
				}
				want := timeseries.Mean(perHourForecast(f, vals, i, horizon))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s at %d over %d h: Mean %v (%#x), per-hour mean %v (%#x)",
						f.Name(), i, horizon, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestForecasterMeanScales is the forecaster leg of the scaling relation:
// scaling a trace by a power of two is exact in binary floating point, so
// every forecaster's Mean of the scaled trace is exactly k times its Mean
// of the original.
func TestForecasterMeanScales(t *testing.T) {
	ts, _ := smallTraceSet(t)
	vals := ts.Trace("IT-ROM").Values
	for _, k := range []float64{2, 0.5} {
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = k * v
		}
		for _, f := range []Forecaster{SeasonalNaive{Period: 24}, EWMA{Alpha: 0.2}, Oracle{}} {
			for _, i := range []int{0, 11, 24, 1000, len(vals) - 3} {
				base, err := f.Mean(vals, i, 24)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Mean(scaled, i, 24)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(k*base) {
					t.Errorf("%s at %d, k=%g: Mean %v, k·Mean %v", f.Name(), i, k, got, k*base)
				}
			}
		}
	}
}

func TestServiceMeanForecast(t *testing.T) {
	ts, _ := smallTraceSet(t)
	svc := NewService(ts, SeasonalNaive{Period: 24})
	now := ts.Start.Add(24 * 10 * time.Hour)
	mean, err := svc.MeanForecast("US-FL-MIA", now, 24)
	if err != nil {
		t.Fatal(err)
	}
	tr := ts.Trace("US-FL-MIA")
	// Seasonal naive over a full day = mean of the prior day.
	hist, _ := tr.Slice(24*9+1, 24*10+1)
	if math.Abs(mean-hist.Mean()) > 1e-9 {
		t.Errorf("MeanForecast = %v, want %v", mean, hist.Mean())
	}
}

// forecastMeanWalk is SeasonalNaive.Mean as it was written before
// the period-by-period sum: one index walk with a modulo per forecast
// hour. It is kept here as the oracle the fast path is bit-compared to.
func forecastMeanWalk(p int, history []float64, horizon int) float64 {
	n := len(history)
	if horizon == 0 {
		return math.NaN()
	}
	var sum float64
	for h := 0; h < horizon; h++ {
		idx := n - p + h%p
		for idx >= n {
			idx -= p
		}
		if idx < 0 {
			idx = n - 1
		}
		sum += history[idx]
	}
	return sum / float64(horizon)
}

func TestSeasonalNaiveForecastMeanMatchesIndexWalk(t *testing.T) {
	ts, _ := smallTraceSet(t)
	vals := ts.Trace("DE-MUC").Values
	for _, p := range []int{1, 5, 24} {
		f := SeasonalNaive{Period: p}
		// Histories shorter than, equal to and longer than one period; the
		// trace's values are irregular, so any reordering of the sum shows.
		for _, n := range []int{1, p - 1, p, p + 1, 3*p + 2, 200} {
			if n < 1 {
				continue
			}
			hist := vals[len(vals)-n:]
			for _, horizon := range []int{0, 1, p - 1, p, p + 1, 3*p + 5} {
				if horizon < 0 {
					continue
				}
				got, err := f.Mean(hist, n-1, horizon)
				if err != nil {
					t.Fatal(err)
				}
				want := forecastMeanWalk(p, hist, horizon)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("period %d, history %d, horizon %d: Mean %v (%#x), index walk %v (%#x)",
						p, n, horizon, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestZoneReaderByIndex holds the index-keyed reads against the trace and
// the time-keyed Service calls, under each forecaster.
func TestZoneReaderByIndex(t *testing.T) {
	ts, _ := smallTraceSet(t)
	tr := ts.Trace("IT-ROM")
	for _, f := range []Forecaster{SeasonalNaive{Period: 24}, EWMA{Alpha: 0.3}, Oracle{}} {
		svc := NewService(ts, f)
		z := svc.Zone("IT-ROM")
		if z.ID() != "IT-ROM" || z.Len() != tr.Len() {
			t.Fatalf("%s: reader for %q with %d hours", f.Name(), z.ID(), z.Len())
		}
		for _, i := range []int{0, 1, 23, 24, 500, tr.Len() - 1} {
			now := ts.Start.Add(time.Duration(i)*time.Hour + 17*time.Minute)
			if got := z.Index(now); got != i {
				t.Fatalf("Index(%v) = %d, want %d", now, got, i)
			}
			ci, err := z.At(i)
			if err != nil || ci != tr.Values[i] {
				t.Fatalf("At(%d) = %v, %v; trace has %v", i, ci, err, tr.Values[i])
			}
			got, err := z.MeanForecast(i, 24)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.MeanForecast("IT-ROM", now, 24)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MeanForecast(%d) = %v, Service says %v", f.Name(), i, got, want)
			}
		}
		// Out of span on either side, and a zone without a trace, read as
		// errors — the same ones Current reports.
		for _, i := range []int{-1, tr.Len()} {
			if _, err := z.At(i); err == nil {
				t.Errorf("At(%d) outside the trace succeeded", i)
			}
			if _, err := z.MeanForecast(i, 24); err == nil {
				t.Errorf("MeanForecast(%d) outside the trace succeeded", i)
			}
		}
		if got := z.Index(ts.Start.Add(-time.Minute)); got != -1 {
			t.Errorf("Index a minute before the trace = %d, want -1", got)
		}
		none := svc.Zone("nope")
		if _, err := none.At(0); err == nil {
			t.Error("reader of a zone without a trace read a value")
		}
		if _, err := none.MeanForecast(0, 24); err == nil {
			t.Error("reader of a zone without a trace forecast a value")
		}
	}
}

// TestZoneReaderConcurrent shares one service's readers between
// goroutines, as concurrent sweep engines over one world do; run under
// -race by `make race`, every goroutine must see the serial answers.
func TestZoneReaderConcurrent(t *testing.T) {
	ts, _ := smallTraceSet(t)
	svc := NewService(ts, nil)
	zones := []ZoneReader{svc.Zone("DE-MUC"), svc.Zone("FR-LYO"), svc.Zone("CH-BRN")}
	want := make([]float64, 0, 3*200)
	for _, z := range zones {
		for i := 0; i < 200; i++ {
			v, err := z.MeanForecast(24+i, 24)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := 0
			for _, z := range zones {
				for i := 0; i < 200; i++ {
					v, err := z.MeanForecast(24+i, 24)
					if err != nil || v != want[k] {
						t.Errorf("concurrent MeanForecast(%d) = %v, %v; serial %v", 24+i, v, err, want[k])
						return
					}
					k++
				}
			}
		}()
	}
	wg.Wait()
}
