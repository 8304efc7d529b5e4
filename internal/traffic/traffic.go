// Package traffic generates deterministic open-loop request workloads for
// the request-level traffic subsystem: per-source-city request streams
// with diurnal and weekly demand shapes, Poisson arrivals, and
// flash-crowd bursts. The paper's evaluation treats demand as a static
// per-deployment rate; this package models the spatiotemporally varying
// request traffic that rate abstracts away, so the simulator and the
// orchestrator can drive utilization, SLO attainment, and per-request
// carbon attribution from actual load.
//
// Like carbon.Generator, the process is fully deterministic given the
// config seed: every hourly slice is drawn from an RNG seeded by
// (seed, hour), so slices can be generated in any order — or concurrently
// from any number of goroutines — and sweeps stay bit-identical.
package traffic

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/rng"
)

// Scenario selects the temporal shape of the generated workload.
type Scenario int

// Workload scenarios.
const (
	// Steady holds the aggregate rate flat (the paper's implicit model).
	Steady Scenario = iota
	// Diurnal applies a double-peaked daily cycle in each source's local
	// time plus a weekend dip.
	Diurnal
	// FlashCrowd is Diurnal plus periodic bursts concentrated on one
	// source city (a viral event hitting one metro): every
	// flashEveryHours hours from hour 0, the heaviest source (the first
	// on ties) draws flashMultiplier times its diurnal rate for
	// flashDurationHours hours.
	FlashCrowd
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Steady:
		return "steady"
	case Diurnal:
		return "diurnal"
	case FlashCrowd:
		return "flash-crowd"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ScenarioByName parses a scenario name (as printed by String).
func ScenarioByName(name string) (Scenario, error) {
	switch strings.ToLower(name) {
	case "steady":
		return Steady, nil
	case "diurnal":
		return Diurnal, nil
	case "flash-crowd", "flash", "flashcrowd":
		return FlashCrowd, nil
	}
	return 0, fmt.Errorf("traffic: unknown scenario %q", name)
}

// Source is one demand origin: a city emitting requests.
type Source struct {
	// City names the origin (a latency-registry city).
	City string
	// Weight is the source's share of the aggregate rate.
	Weight float64
	// Lon approximates the source's local solar time (15 degrees/hour)
	// for the diurnal shape, mirroring carbon.Generator's demand model.
	Lon float64
}

// Config parameterizes a workload.
type Config struct {
	// Seed fixes all arrival draws.
	Seed int64
	// Scenario selects the temporal shape.
	Scenario Scenario
	// RPS is the mean aggregate request rate (requests/second) across all
	// sources at shape factor 1.0.
	RPS float64
}

// FlashCrowd's burst: its period, its length and the factor on the
// burst source's rate while it lasts.
const (
	flashEveryHours    = 72
	flashDurationHours = 3
	flashMultiplier    = 8
)

// peakShape bounds the diurnal shape's factor from above (1 + 0.40 + 0.12).
const peakShape = 1.52

// maxHourlyMean bounds the peak expected requests per hour: RPS × 3600 ×
// peakShape, times flashMultiplier under FlashCrowd. Up to 2^53 a float64
// holds every integer, so a slice's Poisson count converts to int64
// exactly; far past it the conversion overflows and a source silently
// routes nothing.
const maxHourlyMean = 1 << 53

// Validate reports configuration problems.
func (c *Config) Validate() error {
	if !(c.RPS > 0) || math.IsInf(c.RPS, 1) {
		return fmt.Errorf("traffic: RPS %g is not a finite positive number", c.RPS)
	}
	if c.Scenario < Steady || c.Scenario > FlashCrowd {
		return fmt.Errorf("traffic: unknown scenario %d", int(c.Scenario))
	}
	peak := c.RPS * 3600 * peakShape
	if c.Scenario == FlashCrowd {
		peak *= flashMultiplier
	}
	if peak > maxHourlyMean {
		return fmt.Errorf("traffic: peak hourly mean %g requests exceeds %g", peak, float64(maxHourlyMean))
	}
	return nil
}

// Generator produces hourly aggregated request slices per source.
type Generator struct {
	cfg      Config
	start    time.Time
	sources  []Source
	totalW   float64
	flashIdx int
	// diurnal is the shape factor before any flash burst, one row of
	// len(sources) per clock row (clockRow); nil under Steady. Built once
	// by NewGenerator and never written again, so Slice stays safe for
	// concurrent use.
	diurnal []float64

	// src/rnd back AppendSlice's allocation-free path. Because each hourly
	// slice is drawn from a stream seeded purely by (Seed, hour), the
	// source can be reseeded in place instead of reallocated per slice.
	src *rng.Source
	rnd *rng.Rand
}

// NewGenerator builds a generator over the given sources. start anchors
// hour 0 to a wall-clock instant (the trace-year position determines
// day-of-week and, with each source's longitude, local time).
func NewGenerator(cfg Config, start time.Time, sources []Source) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("traffic: no sources")
	}
	g := &Generator{cfg: cfg, start: start, sources: sources}
	g.src = rng.NewSource(0)
	g.rnd = rng.New(g.src)
	for i, s := range sources {
		if !(s.Weight >= 0) || math.IsInf(s.Weight, 1) {
			return nil, fmt.Errorf("traffic: source %s has weight %g, want a finite non-negative number", s.City, s.Weight)
		}
		g.totalW += s.Weight
		// The burst target is the heaviest source, the first on ties.
		if s.Weight > sources[g.flashIdx].Weight {
			g.flashIdx = i
		}
	}
	if g.totalW <= 0 {
		return nil, fmt.Errorf("traffic: source weights sum to zero")
	}
	if cfg.Scenario != Steady {
		n := len(sources)
		g.diurnal = make([]float64, 48*n)
		for r := 0; r < 48; r++ {
			for i, s := range sources {
				g.diurnal[r*n+i] = diurnalFactor(r%24, r >= 24, s.Lon)
			}
		}
	}
	return g, nil
}

// diurnalFactor is the demand shape at clock hour h (0-23) of a source at
// longitude lon, before any flash burst.
func diurnalFactor(h int, weekend bool, lon float64) float64 {
	// Local solar time from longitude, as in carbon.Generator.
	local := math.Mod(float64(h)+lon/15+48, 24)
	// Double-peaked day: a daily sine cresting at 20:00 local plus a
	// 12-hour harmonic; together they peak near 18:25 and bottom out
	// near 09:35 local.
	f := 1 + 0.40*math.Sin(2*math.Pi*(local-14)/24) + 0.12*math.Sin(4*math.Pi*(local-2)/24)
	if weekend {
		f *= 0.82
	}
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// clockRow returns hour h's row of the diurnal table: the row of its
// clock hour in start's location, in the weekend half on Saturday and
// Sunday. It is nil under Steady.
func (g *Generator) clockRow(hour int) []float64 {
	if g.diurnal == nil {
		return nil
	}
	ts := g.start.Add(time.Duration(hour) * time.Hour)
	r := ts.Hour()
	if dow := ts.Weekday(); dow == time.Saturday || dow == time.Sunday {
		r += 24
	}
	n := len(g.sources)
	return g.diurnal[r*n : (r+1)*n]
}

// Start returns the instant of hour 0.
func (g *Generator) Start() time.Time { return g.start }

// Sources returns the generator's demand origins (do not modify).
func (g *Generator) Sources() []Source { return g.sources }

// rate is Rate with hour's clock row already looked up.
func (g *Generator) rate(row []float64, i, hour int) float64 {
	base := g.cfg.RPS * g.sources[i].Weight / g.totalW
	return base * g.shape(row, i, hour)
}

// shape is the scenario's demand multiplier for source i at hour h, whose
// clock row is row.
func (g *Generator) shape(row []float64, i, hour int) float64 {
	if row == nil {
		return 1
	}
	f := row[i]
	if g.cfg.Scenario == FlashCrowd && i == g.flashIdx &&
		hour%flashEveryHours < flashDurationHours {
		f *= flashMultiplier
	}
	return f
}

// Slice draws the aggregated request counts per source for hour h (one
// Poisson draw per source over the 3600-second window). The result is a
// pure function of (Seed, h): slices may be generated in any order and
// from concurrent goroutines.
func (g *Generator) Slice(hour int) []int64 {
	r := rng.New(rng.NewSource(hourSeed(g.cfg.Seed, hour)))
	out := make([]int64, len(g.sources))
	row := g.clockRow(hour)
	for i := range g.sources {
		out[i] = poissonCount(r, g.rate(row, i, hour)*3600)
	}
	return out
}

// AppendSlice appends hour h's per-source request counts to dst and
// returns the extended slice, drawing the identical values Slice(h)
// would. It reseeds a generator-owned RNG in place instead of
// allocating one per call, so a caller reusing dst's capacity generates
// slices with zero steady-state allocations. Unlike Slice, AppendSlice
// is NOT safe for concurrent use: the reseedable stream is shared
// generator state.
func (g *Generator) AppendSlice(dst []int64, hour int) []int64 {
	g.src.Seed(hourSeed(g.cfg.Seed, hour))
	row := g.clockRow(hour)
	for i := range g.sources {
		dst = append(dst, poissonCount(g.rnd, g.rate(row, i, hour)*3600))
	}
	return dst
}

// hourSeed derives the per-slice RNG seed by hashing the base seed and
// the hour through the mixer together. Deriving it as base^hash(hour)
// (the previous scheme) kept the XOR-distance between two base seeds'
// per-hour streams constant — every workload pair shared one fixed
// offset across all hours, correlating sweeps that differ only in seed.
func hourSeed(base int64, hour int) int64 {
	return rng.MixSeed2(base, int64(hour))
}

// poissonCount draws a Poisson(lambda) count: Knuth's product method for
// small rates, the normal approximation for the large per-slice rates an
// open-loop generator produces (a million-RPS source draws lambda ~ 3.6e9
// per hour, far past where exact sampling matters or is affordable).
func poissonCount(rng *rng.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := lambda + math.Sqrt(lambda)*rng.NormFloat64()
	if n < 0 {
		return 0
	}
	return int64(n + 0.5)
}
