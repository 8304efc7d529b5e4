// Package timeseries provides the hourly time-series container used for
// carbon-intensity traces, power telemetry, and simulator metrics, together
// with the aggregation and distribution statistics the evaluation section
// reports (means, quantiles, CDFs, monthly aggregation).
//
// A Series is a fixed-start, fixed-step (hourly) sequence of float64
// samples. The representation is deliberately dense: CarbonEdge replays
// year-long hourly traces (8760 samples) for hundreds of zones, and a dense
// slice keeps replay and aggregation cache-friendly.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Hour is the native step of all CarbonEdge series.
const Hour = time.Hour

// Series is an hourly time series beginning at Start. Values[i] is the
// sample for the hour starting at Start.Add(i*time.Hour).
type Series struct {
	Start  time.Time
	Values []float64
}

// New returns a zero-filled series of n hourly samples starting at start.
func New(start time.Time, n int) *Series {
	return &Series{Start: start.UTC(), Values: make([]float64, n)}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the time just past the last sample.
func (s *Series) End() time.Time { return s.Start.Add(time.Duration(len(s.Values)) * Hour) }

// IndexOf returns the sample index covering t, or an error when t is
// outside the series' span.
func (s *Series) IndexOf(t time.Time) (int, error) {
	d := t.Sub(s.Start)
	if d < 0 {
		return 0, fmt.Errorf("timeseries: %v precedes series start %v", t, s.Start)
	}
	i := int(d / Hour)
	if i >= len(s.Values) {
		return 0, fmt.Errorf("timeseries: %v past series end %v", t, s.End())
	}
	return i, nil
}

// At returns the sample covering time t.
func (s *Series) At(t time.Time) (float64, error) {
	i, err := s.IndexOf(t)
	if err != nil {
		return 0, err
	}
	return s.Values[i], nil
}

// Slice returns the sub-series covering [from, to) hours by index.
// The underlying storage is shared.
func (s *Series) Slice(from, to int) (*Series, error) {
	if from < 0 || to > len(s.Values) || from > to {
		return nil, fmt.Errorf("timeseries: slice [%d,%d) out of range 0..%d", from, to, len(s.Values))
	}
	return &Series{
		Start:  s.Start.Add(time.Duration(from) * Hour),
		Values: s.Values[from:to],
	}, nil
}

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Min returns the minimum sample, or NaN for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the maximum sample, or NaN for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = math.Max(m, v)
	}
	return m
}

// MonthlyMeans returns the mean value per calendar month present in the
// series, in chronological order. Months are determined in UTC. This backs
// the paper's seasonal plots (Figures 4b and 13).
func (s *Series) MonthlyMeans() []MonthStat {
	var out []MonthStat
	var cur *MonthStat
	for i, v := range s.Values {
		ts := s.Start.Add(time.Duration(i) * Hour)
		y, m := ts.Year(), ts.Month()
		if cur == nil || cur.Year != y || cur.Month != m {
			out = append(out, MonthStat{Year: y, Month: m})
			cur = &out[len(out)-1]
		}
		cur.sum += v
		cur.n++
	}
	for i := range out {
		out[i].Mean = out[i].sum / float64(out[i].n)
	}
	return out
}

// MonthStat is the per-month aggregate produced by MonthlyMeans.
type MonthStat struct {
	Year  int
	Month time.Month
	Mean  float64

	sum float64
	n   int
}

// Mean returns the arithmetic mean of values, or NaN when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range values {
		t += v
	}
	return t / float64(len(values))
}

// Quantile returns the q'th quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It returns NaN for empty input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th-percentile of values.
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples (copied).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Points returns up to n evenly spaced (value, cumulative-probability)
// pairs suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []CDFPoint {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		j := i * (len(c.sorted) - 1) / max(n-1, 1)
		out[i] = CDFPoint{
			Value: c.sorted[j],
			Prob:  float64(j+1) / float64(len(c.sorted)),
		}
	}
	return out
}

// CDFPoint is one point on an empirical CDF curve.
type CDFPoint struct {
	Value float64
	Prob  float64
}
