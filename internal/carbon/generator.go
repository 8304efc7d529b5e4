package carbon

import (
	"math"
	"time"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// Generator produces synthetic hourly carbon-intensity traces for a zone by
// simulating merit-order dispatch against a diurnal/seasonal demand curve.
//
// Model summary (all quantities in demand units, mean demand = 1.0):
//
//   - Demand: diurnal double peak (morning + evening), weekend dip, and a
//     seasonal swing.
//   - Solar: clear-sky bell over the daylight window (daylight length
//     follows latitude and day of year), scaled by a persistent cloudiness
//     process.
//   - Wind: mean-reverting (Ornstein–Uhlenbeck style) capacity-factor
//     process with a winter-high seasonal mean.
//   - Dispatch order: solar+wind (curtailable must-run) -> nuclear
//     (baseload) -> hydro (dispatchable, seasonal availability) -> biomass
//     -> fossil fleet (gas/oil/coal) sharing the residual in proportion to
//     capacity.
//
// Carbon intensity per hour is the generation-weighted average of lifecycle
// emission factors (§2.1). The process is fully deterministic given (zone
// ID, seed).
type Generator struct {
	// Seed fixes all stochastic weather processes.
	Seed int64
	// Year is the simulated calendar year (the paper uses 2023).
	Year int
}

// NewGenerator returns a generator for the paper's evaluation year.
func NewGenerator(seed int64) *Generator {
	return &Generator{Seed: seed, Year: 2023}
}

// HoursInYear returns the number of hours the generated traces span.
func (g *Generator) HoursInYear() int {
	start := time.Date(g.Year, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(g.Year+1, 1, 1, 0, 0, 0, 0, time.UTC)
	return int(end.Sub(start) / time.Hour)
}

// Start returns the first instant of the generated traces.
func (g *Generator) Start() time.Time {
	return time.Date(g.Year, 1, 1, 0, 0, 0, 0, time.UTC)
}

// Intensity generates the zone's hourly carbon-intensity series
// (g.CO2eq/kWh) for the whole year.
func (g *Generator) Intensity(z *Zone) *timeseries.Series {
	mixes := g.Mixes(z)
	s := timeseries.New(g.Start(), len(mixes))
	for i, m := range mixes {
		s.Values[i] = m.Intensity()
	}
	return s
}

// Mixes returns the zone's hourly generation mixes for the whole year: it
// runs the full-year merit-order simulation on every call, and the
// caller owns the returned slice.
func (g *Generator) Mixes(z *Zone) []Mix {
	n := g.HoursInYear()
	rng := rng.NewStd(zoneSeed(g.Seed, z.ID))
	out := make([]Mix, n)

	wind := windProcess{rng: rng, level: 0.3}
	cloud := cloudProcess{rng: rng, level: 0.75}

	start := g.Start()
	for h := 0; h < n; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		doy := ts.YearDay()
		// Solar and demand shapes follow local solar time, approximated
		// from longitude (15 degrees per hour).
		local := math.Mod(float64(ts.Hour())+z.Location.Lon/15+48, 24)
		hod := int(local)
		dow := ts.Weekday()

		demand := demandAt(hod, doy, dow, z.Region, rng)
		out[h] = dispatch(z, demand, solarFactor(hod, doy, z.Location.Lat, cloud.step()), wind.step(doy), hydroSeason(doy))
	}
	return out
}

// demandAt models normalized demand: mean 1.0, double diurnal peak, weekend
// dip, seasonal swing, and small noise.
func demandAt(hod, doy int, dow time.Weekday, region Region, rng *rng.Rand) float64 {
	// Diurnal: trough ~04:00, peaks ~09:00 and ~19:00.
	diurnal := 0.10*math.Sin(2*math.Pi*float64(hod-7)/24) +
		0.06*math.Sin(4*math.Pi*float64(hod-1)/24)
	// Seasonal: winter-peaking in Europe (heating), summer-peaking in the
	// US zones we model (cooling in FL/AZ).
	seasonPhase := float64(doy-15) / 365.25 * 2 * math.Pi
	var seasonal float64
	if region == RegionUS {
		seasonal = -0.08 * math.Cos(seasonPhase-math.Pi) // peak mid-summer
	} else {
		seasonal = 0.08 * math.Cos(seasonPhase) // peak mid-winter
	}
	weekend := 0.0
	if dow == time.Saturday || dow == time.Sunday {
		weekend = -0.05
	}
	d := 1 + diurnal + seasonal + weekend + 0.02*rng.NormFloat64()
	if d < 0.5 {
		d = 0.5
	}
	return d
}

// solarFactor returns the solar fleet capacity factor in [0,1]: a clear-sky
// bell across the daylight window scaled by cloudiness.
func solarFactor(hod, doy int, lat, cloudiness float64) float64 {
	// Day length varies with latitude and season; approximation good to
	// ~30 minutes below the polar circles.
	decl := 23.44 * math.Sin(2*math.Pi*float64(doy-81)/365.25)
	latR := lat * math.Pi / 180
	declR := decl * math.Pi / 180
	x := -math.Tan(latR) * math.Tan(declR)
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	dayLen := 2 * math.Acos(x) / math.Pi * 12 // hours
	if dayLen <= 0.5 {
		return 0
	}
	sunrise := 12 - dayLen/2
	t := float64(hod) + 0.5
	if t < sunrise || t > sunrise+dayLen {
		return 0
	}
	bell := math.Sin(math.Pi * (t - sunrise) / dayLen)
	return bell * bell * cloudiness
}

// hydroSeason returns the seasonal availability of hydro capacity:
// spring-melt high, late-summer low.
func hydroSeason(doy int) float64 {
	return 0.75 + 0.2*math.Sin(2*math.Pi*float64(doy-60)/365.25)
}

// windProcess is a mean-reverting hourly capacity-factor process.
type windProcess struct {
	rng   *rng.Rand
	level float64
}

func (w *windProcess) step(doy int) float64 {
	// Seasonal mean: winter high (0.42), summer low (0.25).
	mean := 0.335 + 0.085*math.Cos(2*math.Pi*float64(doy-15)/365.25)
	w.level += 0.06*(mean-w.level) + 0.035*w.rng.NormFloat64()
	if w.level < 0.02 {
		w.level = 0.02
	}
	if w.level > 0.95 {
		w.level = 0.95
	}
	return w.level
}

// cloudProcess is a persistent cloudiness multiplier in [0.25, 1].
type cloudProcess struct {
	rng   *rng.Rand
	level float64
}

func (c *cloudProcess) step() float64 {
	c.level += 0.04*(0.78-c.level) + 0.05*c.rng.NormFloat64()
	if c.level < 0.25 {
		c.level = 0.25
	}
	if c.level > 1 {
		c.level = 1
	}
	return c.level
}

// dispatch performs the merit-order dispatch for one hour and returns the
// resulting generation mix.
func dispatch(z *Zone, demand, solarCF, windCF, hydroAvail float64) Mix {
	var m Mix
	residual := demand

	// Must-run renewables, curtailed if they exceed demand.
	solar := z.Capacity[Solar] * solarCF
	wind := z.Capacity[Wind] * windCF
	vre := solar + wind
	if vre > residual {
		scale := residual / vre
		solar *= scale
		wind *= scale
		vre = residual
	}
	m[Solar], m[Wind] = solar, wind
	residual -= vre

	// Nuclear baseload runs at ~92% capacity factor but is trimmed when
	// renewables already cover demand.
	nuc := math.Min(z.Capacity[Nuclear]*0.92, residual)
	m[Nuclear] = nuc
	residual -= nuc

	// Hydro is dispatchable within its seasonal availability.
	hyd := math.Min(z.Capacity[Hydro]*hydroAvail, residual)
	m[Hydro] = hyd
	residual -= hyd

	bio := math.Min(z.Capacity[Biomass]*0.7, residual)
	m[Biomass] = bio
	residual -= bio

	if residual > 1e-12 {
		fossilCap := z.Capacity[Gas] + z.Capacity[Oil] + z.Capacity[Coal]
		if fossilCap > 0 {
			serve := math.Min(residual, fossilCap)
			m[Gas] = serve * z.Capacity[Gas] / fossilCap
			m[Oil] = serve * z.Capacity[Oil] / fossilCap
			m[Coal] = serve * z.Capacity[Coal] / fossilCap
		}
	}
	return m
}

// TraceSet holds the generated intensity traces for a set of zones, keyed
// by zone ID. It is the in-memory equivalent of the Electricity Maps
// dataset the paper replays.
type TraceSet struct {
	Start  time.Time
	Hours  int
	traces map[string]*timeseries.Series
}

// GenerateTraces produces a TraceSet covering every zone in the registry.
func (g *Generator) GenerateTraces(r *Registry) *TraceSet {
	ts := &TraceSet{
		Start:  g.Start(),
		Hours:  g.HoursInYear(),
		traces: make(map[string]*timeseries.Series, r.Len()),
	}
	for _, z := range r.Zones() {
		ts.traces[z.ID] = g.Intensity(z)
	}
	return ts
}

// Trace returns the intensity series for a zone ID, or nil.
func (t *TraceSet) Trace(zoneID string) *timeseries.Series { return t.traces[zoneID] }

// Put inserts or replaces a zone's trace. Used by tests and the CSV codec.
func (t *TraceSet) Put(zoneID string, s *timeseries.Series) {
	if t.traces == nil {
		t.traces = make(map[string]*timeseries.Series)
	}
	t.traces[zoneID] = s
	if t.Hours == 0 {
		t.Hours = s.Len()
		t.Start = s.Start
	}
}

// ZoneIDs returns the IDs present in the set (unordered).
func (t *TraceSet) ZoneIDs() []string {
	out := make([]string, 0, len(t.traces))
	for id := range t.traces {
		out = append(out, id)
	}
	return out
}
