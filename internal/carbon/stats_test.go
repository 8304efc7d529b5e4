package carbon

import (
	"math"
	"testing"
	"time"
)

// zoneKind names the fleet that shapes a zone's trace: "solar" when its
// solar capacity covers at least 45 % of mean demand, "wind" at 70 %
// wind, "hydro" at 70 % hydro, "fossil" when gas, oil and coal are at
// least 70 % of its capacity, and "" for every other zone. The first
// rule that holds wins.
func zoneKind(z *Zone) string {
	c := z.Capacity
	switch {
	case c[Solar] >= 0.45:
		return "solar"
	case c[Wind] >= 0.7:
		return "wind"
	case c[Hydro] >= 0.7:
		return "hydro"
	case (c[Gas]+c[Oil]+c[Coal])/c.Total() >= 0.7:
		return "fossil"
	}
	return ""
}

// envelope is one zone's year of intensity folded by local solar hour
// and by calendar month.
type envelope struct {
	local [24]float64 // mean by local solar hour (UTC + Lon/15, as the generator reckons it)
	month [12]float64 // mean by calendar month
}

func newEnvelope(g *Generator, z *Zone) envelope {
	s := yearOf(g, z)
	var e envelope
	var nl [24]float64
	var nm [12]float64
	for i, v := range s.Values {
		ts := s.Start.Add(time.Duration(i) * time.Hour)
		hod := int(math.Mod(float64(ts.Hour())+z.Location.Lon/15+48, 24))
		e.local[hod] += v
		nl[hod]++
		e.month[ts.Month()-1] += v
		nm[ts.Month()-1]++
	}
	for h := range e.local {
		e.local[h] /= nl[h]
	}
	for m := range e.month {
		e.month[m] /= nm[m]
	}
	return e
}

// noonOverMidnight is the local-noon mean over the local-midnight mean.
func (e envelope) noonOverMidnight() float64 { return e.local[12] / e.local[0] }

// dailySwing is the highest local-hour mean over the lowest.
func (e envelope) dailySwing() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range e.local {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return hi / lo
}

// winterOverSummer is the December–February mean over the June–August
// mean (months weighted alike).
func (e envelope) winterOverSummer() float64 {
	return (e.month[11] + e.month[0] + e.month[1]) / (e.month[5] + e.month[6] + e.month[7])
}

// mayOverNovember is May's mean over November's: hydro availability
// peaks near the end of May and bottoms out near the start of December.
func (e envelope) mayOverNovember() float64 { return e.month[4] / e.month[10] }

// TestGeneratorEnvelopes states the daily and seasonal envelopes of
// each zone kind over DefaultRegistry(42)'s year under seed 42: every
// zone of the kind has the statistic within [lo, hi], and the kind's mean
// of it is within tol of mean. The bands are the extremes and means
// measured when they were written, rounded outward; they are not to be
// widened, because a generator change that moves a statistic out of its
// band changes what the traces say about the paper's zones.
//
//   - Solar-heavy zones are cleaner at local noon than at local midnight
//     (Figure 4a's Kingman shape: 0.19 of midnight there, under 0.7
//     everywhere) and cleaner in summer than in winter.
//   - Wind-heavy zones swing little over the day; the European ones are
//     on average cleaner in winter, when the wind process's seasonal
//     mean is high, though demand peaks then too and one zone of four is
//     not.
//   - Hydro-heavy zones are cleanest in the spring melt (May) and
//     dirtiest as availability bottoms out (November), several times
//     cleaner in summer than in winter, and dirtier at noon, when demand
//     outruns their water, than at midnight.
//   - Fossil-heavy zones are flat: under 26 % between their cleanest
//     and dirtiest local hour and within 4 % between winter and summer.
func TestGeneratorEnvelopes(t *testing.T) {
	reg, err := DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(42)
	byKind := map[string][]*Zone{}
	envs := map[*Zone]envelope{}
	for _, z := range reg.Zones() {
		if k := zoneKind(z); k != "" {
			byKind[k] = append(byKind[k], z)
			envs[z] = newEnvelope(g, z)
		}
	}
	europe := func(z *Zone) bool { return z.Region == RegionEurope }
	for _, tc := range []struct {
		kind      string
		in        func(*Zone) bool // nil: every zone of the kind
		zones     int
		stat      string
		f         func(envelope) float64
		lo, hi    float64
		mean, tol float64
	}{
		{"solar", nil, 25, "noon/midnight", envelope.noonOverMidnight, 0.19, 0.68, 0.541, 0.01},
		{"solar", nil, 25, "winter/summer", envelope.winterOverSummer, 1.02, 1.34, 1.093, 0.01},
		{"wind", nil, 12, "daily swing", envelope.dailySwing, 1.18, 1.31, 1.235, 0.01},
		{"wind", europe, 4, "winter/summer", envelope.winterOverSummer, 0.86, 1.03, 0.945, 0.01},
		{"hydro", nil, 18, "May/November", envelope.mayOverNovember, 0.16, 0.68, 0.248, 0.01},
		{"hydro", nil, 18, "winter/summer", envelope.winterOverSummer, 1.36, 4.88, 3.608, 0.05},
		{"hydro", nil, 18, "noon/midnight", envelope.noonOverMidnight, 1.10, 1.67, 1.236, 0.01},
		{"fossil", nil, 50, "daily swing", envelope.dailySwing, 1.07, 1.26, 1.140, 0.01},
		{"fossil", nil, 50, "winter/summer", envelope.winterOverSummer, 0.99, 1.04, 1.020, 0.01},
	} {
		var sum float64
		n := 0
		for _, z := range byKind[tc.kind] {
			if tc.in != nil && !tc.in(z) {
				continue
			}
			v := tc.f(envs[z])
			if v < tc.lo || v > tc.hi {
				t.Errorf("%s-heavy %s: %s %.3f, want within [%.2f, %.2f]", tc.kind, z.ID, tc.stat, v, tc.lo, tc.hi)
			}
			sum += v
			n++
		}
		if n != tc.zones {
			t.Errorf("%s-heavy %s: %d zones, want %d", tc.kind, tc.stat, n, tc.zones)
			continue
		}
		if mean := sum / float64(n); math.Abs(mean-tc.mean) > tc.tol {
			t.Errorf("%s-heavy %s: mean %.3f over %d zones, want %.3f ± %.2f", tc.kind, tc.stat, mean, n, tc.mean, tc.tol)
		}
	}
}
