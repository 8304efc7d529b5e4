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

// hoursPerDay is the length of one calendar day of the generated traces,
// which are in UTC and so carry no daylight-saving days.
const hoursPerDay = 24

// intensity is Intensity over the shared terms of g's year.
func (g *Generator) intensity(z *Zone, days []day) *timeseries.Series {
	s := timeseries.New(g.Start(), hoursPerDay*len(days))
	g.walk(z, days, func(h int, m Mix) { s.Values[h] = m.Intensity() })
	return s
}

// Mixes returns the zone's hourly generation mixes for the whole year: it
// runs the full-year merit-order simulation on every call, and the
// caller owns the returned slice.
func (g *Generator) Mixes(z *Zone) []Mix {
	days := g.calendar()
	out := make([]Mix, hoursPerDay*len(days))
	g.walk(z, days, func(h int, m Mix) { out[h] = m })
	return out
}

// walk runs the zone's full-year merit-order simulation over the days of
// g's year and hands each hour's mix to emit, in hour order. Every term
// is computed once per period in which it can change: the calendar holds
// what depends on the day alone, the daylight window is derived once per
// day for the zone's latitude, and the local hour comes from a table of
// the 24 UTC hours for the zone's longitude. Per hour there remain the
// three normal draws (demand noise, then cloud, then wind), the solar
// bell and dispatch.
func (g *Generator) walk(z *Zone, days []day, emit func(h int, m Mix)) {
	rng := rng.NewStd(zoneSeed(g.Seed, z.ID))
	wind := windProcess{rng: rng, level: 0.3}
	cloud := cloudProcess{rng: rng, level: 0.75}

	// Solar and demand shapes follow local solar time, approximated from
	// longitude (15 degrees per hour).
	var local [hoursPerDay]int
	for u := range local {
		local[u] = int(math.Mod(float64(u)+z.Location.Lon/15+48, 24))
	}
	negTanLat := -math.Tan(z.Location.Lat * math.Pi / 180)
	season := seasonOf(z.Region)

	h := 0
	for i := range days {
		d := &days[i]
		sun := newDaylight(negTanLat, d.tanDecl)
		for _, hod := range local {
			load := demand(hod, d, season, rng.NormFloat64())
			solar := sun.factor(hod, cloud.step())
			emit(h, dispatch(z, load, solar, wind.step(d.windMean), d.hydro))
			h++
		}
	}
}

// day holds the terms of one calendar day that every zone shares.
type day struct {
	tanDecl  float64    // tangent of the solar declination
	hydro    float64    // seasonal hydro availability (hydroSeason)
	windMean float64    // seasonal mean of the wind capacity factor
	seasonal [2]float64 // seasonal demand swing, indexed by seasonOf
	weekend  float64    // weekend demand dip, 0 on weekdays
}

// calendar returns the shared terms of each day of g's year.
func (g *Generator) calendar() []day {
	days := make([]day, g.HoursInYear()/hoursPerDay)
	first := g.Start().Weekday()
	for i := range days {
		doy := i + 1
		days[i] = day{
			tanDecl:  tanDeclination(doy),
			hydro:    hydroSeason(doy),
			windMean: windMean(doy),
			seasonal: [2]float64{seasonalDemand(doy, RegionUS), seasonalDemand(doy, RegionEurope)},
			weekend:  weekendDip((first + time.Weekday(i%7)) % 7),
		}
	}
	return days
}

// seasonOf returns the index into day.seasonal of a region's swing: US
// zones peak in summer, all others in winter.
func seasonOf(r Region) int {
	if r == RegionUS {
		return 0
	}
	return 1
}

// demand models normalized demand at local hour hod of day d: mean 1.0,
// a double diurnal peak, the day's seasonal swing and weekend dip, and
// small noise (noise is a standard normal draw), floored at 0.5.
func demand(hod int, d *day, season int, noise float64) float64 {
	v := 1 + diurnal[hod] + d.seasonal[season] + d.weekend + 0.02*noise
	if v < 0.5 {
		v = 0.5
	}
	return v
}

// diurnal is diurnalDemand by local hour of day.
var diurnal = func() (t [hoursPerDay]float64) {
	for hod := range t {
		t[hod] = diurnalDemand(hod)
	}
	return t
}()

// diurnalDemand returns demand's diurnal swing at local hour hod: trough
// ~04:00, peaks ~09:00 and ~19:00.
func diurnalDemand(hod int) float64 {
	return 0.10*math.Sin(2*math.Pi*float64(hod-7)/24) +
		0.06*math.Sin(4*math.Pi*float64(hod-1)/24)
}

// seasonalDemand returns demand's seasonal swing on day of year doy:
// winter-peaking in Europe (heating). The US branch was meant to peak in
// mid-summer (cooling in FL/AZ), but cos(φ−π) = −cos(φ), so it too peaks
// in mid-winter, within rounding of the other branch; every recorded
// digest carries that, and TestCalendarTerms states it.
func seasonalDemand(doy int, region Region) float64 {
	seasonPhase := float64(doy-15) / 365.25 * 2 * math.Pi
	if region == RegionUS {
		return -0.08 * math.Cos(seasonPhase-math.Pi)
	}
	return 0.08 * math.Cos(seasonPhase) // peak mid-winter
}

// weekendDip returns demand's dip on weekday wd.
func weekendDip(wd time.Weekday) float64 {
	if wd == time.Saturday || wd == time.Sunday {
		return -0.05
	}
	return 0
}

// tanDeclination returns the tangent of the solar declination on day of
// year doy.
func tanDeclination(doy int) float64 {
	decl := 23.44 * math.Sin(2*math.Pi*float64(doy-81)/365.25)
	return math.Tan(decl * math.Pi / 180)
}

// daylight is one zone-day's daylight window in local solar hours.
type daylight struct {
	rise, length float64
}

// newDaylight returns the daylight window at the latitude whose negated
// tangent is negTanLat, on the day whose declination has tangent tanDecl.
// Day length varies with latitude and season; approximation good to ~30
// minutes below the polar circles.
func newDaylight(negTanLat, tanDecl float64) daylight {
	x := negTanLat * tanDecl
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	dayLen := 2 * math.Acos(x) / math.Pi * 12 // hours
	return daylight{rise: 12 - dayLen/2, length: dayLen}
}

// factor returns the solar fleet capacity factor in [0,1] at local hour
// hod: a clear-sky bell across the daylight window scaled by cloudiness.
// A day of at most half an hour of light has no sun.
func (s daylight) factor(hod int, cloudiness float64) float64 {
	if s.length <= 0.5 {
		return 0
	}
	t := float64(hod) + 0.5
	if t < s.rise || t > s.rise+s.length {
		return 0
	}
	bell := math.Sin(math.Pi * (t - s.rise) / s.length)
	return bell * bell * cloudiness
}

// hydroSeason returns the seasonal availability of hydro capacity:
// spring-melt high, late-summer low.
func hydroSeason(doy int) float64 {
	return 0.75 + 0.2*math.Sin(2*math.Pi*float64(doy-60)/365.25)
}

// windMean returns the seasonal mean of the wind capacity factor on day
// of year doy: winter high (0.42), summer low (0.25).
func windMean(doy int) float64 {
	return 0.335 + 0.085*math.Cos(2*math.Pi*float64(doy-15)/365.25)
}

// windProcess is a mean-reverting hourly capacity-factor process.
type windProcess struct {
	rng   *rng.Rand
	level float64
}

// step moves the process one hour toward the day's seasonal mean.
func (w *windProcess) step(mean float64) float64 {
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
	nuc := min(z.Capacity[Nuclear]*0.92, residual)
	m[Nuclear] = nuc
	residual -= nuc

	// Hydro is dispatchable within its seasonal availability.
	hyd := min(z.Capacity[Hydro]*hydroAvail, residual)
	m[Hydro] = hyd
	residual -= hyd

	bio := min(z.Capacity[Biomass]*0.7, residual)
	m[Biomass] = bio
	residual -= bio

	if residual > 1e-12 {
		fossilCap := z.Capacity[Gas] + z.Capacity[Oil] + z.Capacity[Coal]
		if fossilCap > 0 {
			serve := min(residual, fossilCap)
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
	days := g.calendar()
	for _, z := range r.Zones() {
		ts.traces[z.ID] = g.intensity(z, days)
	}
	return ts
}

// Trace returns the intensity series for a zone ID, or nil.
func (t *TraceSet) Trace(zoneID string) *timeseries.Series { return t.traces[zoneID] }

// ZoneIDs returns the IDs present in the set (unordered).
func (t *TraceSet) ZoneIDs() []string {
	out := make([]string, 0, len(t.traces))
	for id := range t.traces {
		out = append(out, id)
	}
	return out
}
