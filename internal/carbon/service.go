package carbon

import (
	"fmt"
	"math"
	"time"

	"repro/internal/timeseries"
)

// Forecaster predicts a zone's mean carbon intensity over the coming
// hours from its trace: the Ī_j input of the placement formulation
// (Table 2), the one carbon signal placement reads ahead of time.
// Implementations must be safe for concurrent use.
type Forecaster interface {
	// Name identifies the forecaster in experiment output.
	Name() string
	// Mean returns the mean forecast intensity over the horizon hours
	// after trace index i, given the trace up to and including i (only
	// Oracle reads past it). It errors when i does not index trace; a
	// horizon of no hours has no mean, NaN.
	Mean(trace []float64, i, horizon int) (float64, error)
}

// Service is the carbon-intensity service of Figure 6: it replays
// historical traces to provide "real-time" carbon intensity per zone and
// periodic forecasts (step 0 of the CarbonEdge workflow). It corresponds to
// the Electricity Maps API integration in the prototype (§5.1).
//
// A Service holds no mutable state: NewService fixes every field, so it
// and the ZoneReaders it hands out are safe for concurrent use as long as
// nobody edits the trace set underneath them.
type Service struct {
	traces   *TraceSet
	forecast Forecaster
}

// NewService creates a service replaying the given traces with the given
// forecaster. A nil forecaster defaults to SeasonalNaive.
func NewService(traces *TraceSet, f Forecaster) *Service {
	if f == nil {
		f = SeasonalNaive{Period: 24}
	}
	return &Service{traces: traces, forecast: f}
}

// Current returns the carbon intensity of the zone at time now.
func (s *Service) Current(zoneID string, now time.Time) (float64, error) {
	z := s.Zone(zoneID)
	return z.At(z.Index(now))
}

// MeanForecast returns the mean of the forecast over the horizon — the
// Ī_j input of the placement formulation (Table 2).
func (s *Service) MeanForecast(zoneID string, now time.Time, horizon int) (float64, error) {
	z := s.Zone(zoneID)
	return z.MeanForecast(z.Index(now), horizon)
}

// ZoneReader reads one zone's carbon signal by trace index. Service.Zone
// resolves the zone's trace column once, so a caller stepping through the
// trace hour by hour pays an array read per intensity and one forecaster
// call per forecast: no map lookup, time arithmetic or lock per read.
// Index i is the hour starting i hours after the trace's own Start (zones
// of one TraceSet may start at different instants). Service.Current and
// Service.MeanForecast are thin wrappers over it. A ZoneReader is a
// read-only value, safe to share between goroutines.
type ZoneReader struct {
	forecast Forecaster
	id       string
	trace    *timeseries.Series // nil when the set holds no trace for the zone
}

// Zone returns the read handle of a zone. A zone without a trace still
// yields a handle; every read through it reports the missing trace.
func (s *Service) Zone(zoneID string) ZoneReader {
	return ZoneReader{forecast: s.forecast, id: zoneID, trace: s.traces.Trace(zoneID)}
}

// Index returns the trace index of the hour covering t. It is not
// bounds-checked: it is negative before the trace starts and Len() or
// more past its end, which Check, At and MeanForecast report as errors.
func (z ZoneReader) Index(t time.Time) int {
	if z.trace == nil {
		return 0
	}
	d := t.Sub(z.trace.Start)
	i := int(d / time.Hour)
	if d < 0 && d%time.Hour != 0 {
		i-- // floor, so i < 0 exactly when t precedes the trace
	}
	return i
}

// Check reports whether trace index i can be read: nil, or the error
// Current returns for that hour (no trace, or outside the trace's span).
func (z ZoneReader) Check(i int) error {
	if z.trace == nil {
		return fmt.Errorf("carbon: no trace for zone %q", z.id)
	}
	if uint(i) >= uint(z.trace.Len()) {
		_, err := z.trace.IndexOf(z.instant(i))
		return err
	}
	return nil
}

// ID returns the zone's ID.
func (z ZoneReader) ID() string { return z.id }

// Len returns the number of hours in the zone's trace (0 without one):
// the readable indices are [0, Len()).
func (z ZoneReader) Len() int {
	if z.trace == nil {
		return 0
	}
	return z.trace.Len()
}

// instant is the start of the hour at trace index i.
func (z ZoneReader) instant(i int) time.Time {
	return z.trace.Start.Add(time.Duration(i) * time.Hour)
}

// At returns the zone's carbon intensity at trace index i.
func (z ZoneReader) At(i int) (float64, error) {
	if err := z.Check(i); err != nil {
		return 0, err
	}
	return z.trace.Values[i], nil
}

// MeanForecast returns the service forecaster's mean over the horizon
// hours following trace index i.
func (z ZoneReader) MeanForecast(i, horizon int) (float64, error) {
	if err := z.Check(i); err != nil {
		return 0, err
	}
	return z.forecast.Mean(z.trace.Values, i, horizon)
}

// history returns trace[:i+1], the hours a forecaster standing at index i
// has seen, or an error when i does not index trace.
func history(name string, trace []float64, i int) ([]float64, error) {
	if uint(i) >= uint(len(trace)) {
		return nil, fmt.Errorf("carbon: %s: index %d outside a %d-hour trace", name, i, len(trace))
	}
	return trace[:i+1], nil
}

// SeasonalNaive forecasts each future hour as the value observed Period
// hours earlier (same hour yesterday for Period=24). It is the forecaster
// the prototype ships with; carbon intensity has a strong diurnal cycle, so
// this simple model has competitive accuracy.
type SeasonalNaive struct {
	// Period is the seasonality in hours (24 = daily).
	Period int
}

// Name implements Forecaster.
func (SeasonalNaive) Name() string { return "seasonal-naive" }

// Mean implements Forecaster. Hour h of the horizon repeats the value at
// the same phase of the last complete period, so with at least one period
// of history the sum walks that window in order, period by period; a
// shorter history repeats the latest hour for the phases it lacks.
func (f SeasonalNaive) Mean(trace []float64, i, horizon int) (float64, error) {
	p := f.Period
	if p <= 0 {
		p = 24
	}
	hist, err := history(f.Name(), trace, i)
	if err != nil {
		return 0, err
	}
	if horizon <= 0 {
		return math.NaN(), nil
	}
	n := len(hist)
	var sum float64
	if n >= p {
		last := hist[n-p:]
		for rem := horizon; rem > 0; rem -= p {
			for _, v := range last[:min(rem, p)] {
				sum += v
			}
		}
		return sum / float64(horizon), nil
	}
	for h := 0; h < horizon; h++ {
		idx := n - p + h%p
		if idx < 0 {
			idx = n - 1
		}
		sum += hist[idx]
	}
	return sum / float64(horizon), nil
}

// EWMA forecasts a flat continuation at the exponentially weighted moving
// average of recent history. It underreacts to diurnal swings and serves as
// the ablation baseline for forecast quality.
type EWMA struct {
	// Alpha is the smoothing factor in (0,1]; higher reacts faster.
	Alpha float64
}

// Name implements Forecaster.
func (EWMA) Name() string { return "ewma" }

// Mean implements Forecaster: the level folded over the history, summed
// once per horizon hour and divided, as the mean of a flat forecast is.
func (f EWMA) Mean(trace []float64, i, horizon int) (float64, error) {
	hist, err := history(f.Name(), trace, i)
	if err != nil {
		return 0, err
	}
	if horizon <= 0 {
		return math.NaN(), nil
	}
	a := f.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	level := hist[0]
	for _, v := range hist[1:] {
		level = a*v + (1-a)*level
	}
	var sum float64
	for h := 0; h < horizon; h++ {
		sum += level
	}
	return sum / float64(horizon), nil
}

// Oracle forecasts the true future of the trace. It provides the upper
// bound for the forecast ablation.
type Oracle struct{}

// Name implements Forecaster.
func (Oracle) Name() string { return "oracle" }

// Mean implements Forecaster: the mean of the hours after index i, the
// trace's last hour standing in for those past its end.
func (f Oracle) Mean(trace []float64, i, horizon int) (float64, error) {
	if _, err := history(f.Name(), trace, i); err != nil {
		return 0, err
	}
	if horizon <= 0 {
		return math.NaN(), nil
	}
	var sum float64
	for h := 0; h < horizon; h++ {
		sum += trace[min(i+1+h, len(trace)-1)]
	}
	return sum / float64(horizon), nil
}
