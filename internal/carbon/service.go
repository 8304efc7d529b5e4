package carbon

import (
	"fmt"
	"math"
	"time"

	"repro/internal/timeseries"
)

// Forecaster predicts future carbon intensity for a zone from its history.
// Implementations must be safe for concurrent use.
type Forecaster interface {
	// Forecast returns the predicted carbon intensity for each of the
	// horizon hours following now, given the trace history up to and
	// including now.
	Forecast(history *timeseries.Series, now time.Time, horizon int) ([]float64, error)
	// Name identifies the forecaster in experiment output.
	Name() string
}

// Service is the carbon-intensity service of Figure 6: it replays
// historical traces to provide "real-time" carbon intensity per zone and
// periodic forecasts (step 0 of the CarbonEdge workflow). It corresponds to
// the Electricity Maps API integration in the prototype (§5.1).
//
// A Service holds no mutable state: NewService fixes every field, so it
// and the ZoneReaders it hands out are safe for concurrent use as long as
// nobody edits the trace set underneath them (TraceSet.Put builds a set;
// it is not for editing one a Service already replays).
type Service struct {
	traces   *TraceSet
	forecast Forecaster
	// mean is the forecaster's allocation-free horizon-mean path, or nil
	// when it has none or needs the zone identity (a ZoneForecaster such
	// as Oracle): those fall back to Forecast plus timeseries.Mean.
	mean MeanForecaster
}

// NewService creates a service replaying the given traces with the given
// forecaster. A nil forecaster defaults to SeasonalNaive.
func NewService(traces *TraceSet, f Forecaster) *Service {
	if f == nil {
		f = SeasonalNaive{Period: 24}
	}
	s := &Service{traces: traces, forecast: f}
	if mf, ok := f.(MeanForecaster); ok {
		if _, zoned := f.(ZoneForecaster); !zoned {
			s.mean = mf
		}
	}
	return s
}

// Current returns the carbon intensity of the zone at time now.
func (s *Service) Current(zoneID string, now time.Time) (float64, error) {
	z := s.Zone(zoneID)
	return z.At(z.Index(now))
}

// ZoneForecaster is implemented by forecasters that need the zone identity
// and full trace set (e.g. Oracle); Service prefers this path when
// available.
type ZoneForecaster interface {
	ForecastZone(traces *TraceSet, zoneID string, now time.Time, horizon int) ([]float64, error)
}

// Forecast returns the predicted hourly carbon intensity for the horizon
// hours following now.
func (s *Service) Forecast(zoneID string, now time.Time, horizon int) ([]float64, error) {
	if zf, ok := s.forecast.(ZoneForecaster); ok {
		return zf.ForecastZone(s.traces, zoneID, now, horizon)
	}
	tr := s.traces.Trace(zoneID)
	if tr == nil {
		return nil, fmt.Errorf("carbon: no trace for zone %q", zoneID)
	}
	i, err := tr.IndexOf(now)
	if err != nil {
		return nil, err
	}
	hist, err := tr.Slice(0, i+1)
	if err != nil {
		return nil, err
	}
	return s.forecast.Forecast(hist, now, horizon)
}

// MeanForecaster is implemented by forecasters that can produce the
// horizon mean directly from the raw history window without
// materializing the per-hour forecast slice. Service.MeanForecast uses
// this allocation-free path when available; implementations must return
// exactly timeseries.Mean of what Forecast would return for the same
// inputs (NaN for an empty horizon).
type MeanForecaster interface {
	ForecastMean(history []float64, now time.Time, horizon int) (float64, error)
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
// Service.MeanForecast are thin wrappers over it, so which forecaster
// path a read takes is decided here and nowhere else. A ZoneReader is a
// read-only value, safe to share between goroutines.
type ZoneReader struct {
	svc   *Service
	id    string
	trace *timeseries.Series // nil when the set holds no trace for the zone
}

// Zone returns the read handle of a zone. A zone without a trace still
// yields a handle; every read through it reports the missing trace.
func (s *Service) Zone(zoneID string) ZoneReader {
	return ZoneReader{svc: s, id: zoneID, trace: s.traces.Trace(zoneID)}
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

// MeanForecast returns the mean forecast over the horizon hours following
// trace index i, given the history up to and including it: the
// forecaster's allocation-free ForecastMean when it has one, else the
// mean of its Forecast.
func (z ZoneReader) MeanForecast(i, horizon int) (float64, error) {
	if err := z.Check(i); err != nil {
		return 0, err
	}
	if z.svc.mean != nil {
		return z.svc.mean.ForecastMean(z.trace.Values[:i+1], z.instant(i), horizon)
	}
	f, err := z.svc.Forecast(z.id, z.instant(i), horizon)
	if err != nil {
		return 0, err
	}
	return timeseries.Mean(f), nil
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

// Forecast implements Forecaster.
func (f SeasonalNaive) Forecast(history *timeseries.Series, _ time.Time, horizon int) ([]float64, error) {
	p := f.Period
	if p <= 0 {
		p = 24
	}
	n := history.Len()
	if n == 0 {
		return nil, fmt.Errorf("carbon: seasonal-naive needs history")
	}
	out := make([]float64, horizon)
	for h := 0; h < horizon; h++ {
		// Index of the same phase in the most recent complete period.
		idx := n - p + h%p
		for idx >= n {
			idx -= p
		}
		if idx < 0 {
			idx = n - 1
		}
		out[h] = history.Values[idx]
	}
	return out, nil
}

// ForecastMean implements MeanForecaster: the horizon mean with the
// summation order Forecast plus timeseries.Mean would use, so the fast
// path is bit-identical to the slice-materializing one. With at least one
// period of history, Forecast's index walk visits the last period in
// order, over and over; the sum walks that window directly, period by
// period, instead of re-deriving each index with a modulo.
func (f SeasonalNaive) ForecastMean(history []float64, _ time.Time, horizon int) (float64, error) {
	p := f.Period
	if p <= 0 {
		p = 24
	}
	n := len(history)
	if n == 0 {
		return 0, fmt.Errorf("carbon: seasonal-naive needs history")
	}
	if horizon == 0 {
		return math.NaN(), nil
	}
	var sum float64
	if n >= p {
		last := history[n-p:]
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
		sum += history[idx]
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

// Forecast implements Forecaster.
func (f EWMA) Forecast(history *timeseries.Series, _ time.Time, horizon int) ([]float64, error) {
	if history.Len() == 0 {
		return nil, fmt.Errorf("carbon: ewma needs history")
	}
	a := f.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	level := history.Values[0]
	for _, v := range history.Values[1:] {
		level = a*v + (1-a)*level
	}
	out := make([]float64, horizon)
	for i := range out {
		out[i] = level
	}
	return out, nil
}

// Oracle returns the true future values from the full trace. It provides
// the upper bound for the forecast ablation.
type Oracle struct {
	Traces *TraceSet
	ZoneID string
}

// Name implements Forecaster.
func (Oracle) Name() string { return "oracle" }

// ForecastZone implements ZoneForecaster: when used through a Service the
// oracle reads the true future of whichever zone is being forecast.
func (f Oracle) ForecastZone(traces *TraceSet, zoneID string, now time.Time, horizon int) ([]float64, error) {
	o := Oracle{Traces: traces, ZoneID: zoneID}
	return o.Forecast(nil, now, horizon)
}

// Forecast implements Forecaster. It ignores history and reads the truth.
func (f Oracle) Forecast(_ *timeseries.Series, now time.Time, horizon int) ([]float64, error) {
	tr := f.Traces.Trace(f.ZoneID)
	if tr == nil {
		return nil, fmt.Errorf("carbon: oracle has no trace for %q", f.ZoneID)
	}
	i, err := tr.IndexOf(now)
	if err != nil {
		return nil, err
	}
	out := make([]float64, horizon)
	for h := 0; h < horizon; h++ {
		j := i + 1 + h
		if j >= tr.Len() {
			j = tr.Len() - 1
		}
		out[h] = tr.Values[j]
	}
	return out, nil
}
