package metrics

import (
	"fmt"
	"math"
	"sync"
)

// QuantileSketch estimates quantiles of a non-negative stream in fixed
// memory: a logarithmically-bucketed histogram (DDSketch-style) whose
// bucket boundaries grow geometrically, giving a bounded relative error on
// every reported quantile regardless of stream length. The request-level
// traffic telemetry uses it for latency quantiles over billions of
// requests, so observations carry integer weights (AddN) and two sketches
// with the same resolution merge exactly. A caller that records a small
// set of recurring values resolves each value's bucket once (Bucket) and
// folds a batch of pre-bucketed observations in under one lock (AddObs);
// both forms share one accumulation step.
//
// The sketch is a pure function of the inserted multiset: insertion order,
// interleaving, and merge order never change a reported quantile, which
// keeps parallel and serial sweep runs bit-identical.
//
// A QuantileSketch is safe for concurrent use.
type QuantileSketch struct {
	mu sync.Mutex
	// buckets[i] counts values in (lowest*gamma^(i-1), lowest*gamma^i];
	// bucket 0 additionally absorbs everything <= lowest.
	buckets  []uint64
	count    uint64
	sum      float64
	min, max float64

	lowest   float64
	gamma    float64
	logGamma float64
}

// Sketch resolution defaults: ~1% relative error over a value range of
// [0.001, ~3e6] — microseconds to about an hour when values are
// milliseconds.
const (
	defaultSketchLowest  = 1e-3
	defaultSketchGamma   = 1.02
	defaultSketchBuckets = 1100
)

// NewQuantileSketch returns a sketch at the default resolution (~1%
// relative error, 1100 buckets, ~9 KB fixed).
func NewQuantileSketch() *QuantileSketch {
	//detlint:hotalloc amortized: one sketch per replica/stream, created once and reused for its lifetime
	return &QuantileSketch{
		buckets:  make([]uint64, defaultSketchBuckets),
		lowest:   defaultSketchLowest,
		gamma:    defaultSketchGamma,
		logGamma: math.Log(defaultSketchGamma),
	}
}

// AddN records n identical observations in O(1); n <= 0 is a no-op.
func (s *QuantileSketch) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	v = clampObs(v)
	s.mu.Lock()
	s.accumulate(v, n, s.indexOf(v))
	s.mu.Unlock()
}

// Obs is one weighted observation with its bucket already resolved, for
// callers that record the same value many times (the router logs one per
// assignment and the value is a constant of the replica pair): Bucket
// must be this sketch's Bucket(V).
type Obs struct {
	V      float64
	N      int64
	Bucket int32
}

// Bucket returns the index of the bucket AddN(v, ...) increments. It is a
// pure function of v and the sketch's resolution, which never changes
// after construction, so it takes no lock and its result may be cached
// for the sketch's lifetime — but only for this sketch: an index resolved
// against one resolution is meaningless in another.
func (s *QuantileSketch) Bucket(v float64) int32 {
	return int32(s.indexOf(clampObs(v)))
}

// SameResolution reports whether o has s's bucket geometry (lowest
// boundary, growth factor, bucket count), i.e. whether a Bucket index
// resolved against one is valid in the other. Sketches from
// NewQuantileSketch always agree; one restored from a foreign state may
// not. Resolution never changes after construction, so no lock is taken.
func (s *QuantileSketch) SameResolution(o *QuantileSketch) bool {
	return s.lowest == o.lowest && s.gamma == o.gamma && len(s.buckets) == len(o.buckets)
}

// AddObs records the observations in order under a single lock: it is
// AddN(o.V, o.N) for each o, minus the per-call logarithm and lock round
// trip, and leaves the sketch in the bit-identical state (the same float
// additions in the same order). Entries with N <= 0 are skipped.
func (s *QuantileSketch) AddObs(obs []Obs) {
	s.mu.Lock()
	for i := range obs {
		if o := &obs[i]; o.N > 0 {
			s.accumulate(clampObs(o.V), o.N, int(o.Bucket))
		}
	}
	s.mu.Unlock()
}

// clampObs maps the values the sketch does not track (negative, NaN) to
// zero, so they land in the lowest bucket.
func clampObs(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// accumulate is the sketch's one accumulation step: n > 0 observations of
// the clamped value v into bucket. The caller holds mu.
//
// A finite positive v updates the extremes with plain compares, which
// equal math.Min/math.Max here: min and max are never NaN (clampObs and
// SketchFromState keep it out), and only the signed zeros and +Inf that
// v can also be need their special cases.
func (s *QuantileSketch) accumulate(v float64, n int64, bucket int) {
	switch {
	case s.count == 0:
		s.min, s.max = v, v
	case v > 0 && v <= math.MaxFloat64:
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	default:
		s.min = math.Min(s.min, v)
		s.max = math.Max(s.max, v)
	}
	s.buckets[bucket] += uint64(n)
	s.count += uint64(n)
	s.sum += v * float64(n)
}

// indexOf maps a clamped value to its bucket, clamping at both ends. The
// top clamp compares before converting: +Inf has no int.
func (s *QuantileSketch) indexOf(v float64) int {
	if v <= s.lowest {
		return 0
	}
	top := len(s.buckets) - 1
	if x := math.Ceil(math.Log(v/s.lowest) / s.logGamma); x < float64(top) {
		return int(x)
	}
	return top
}

// Quantile reports the value at quantile q in [0, 1] within the sketch's
// relative error, or NaN when the sketch is empty or q is NaN. Results
// are clamped to the exact observed [min, max].
func (s *QuantileSketch) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.count-1))
	var seen uint64
	for i, c := range s.buckets {
		seen += c
		if seen > rank {
			// The clamping buckets at each end report the exact extremes;
			// interior buckets report their geometric midpoint.
			switch i {
			case 0:
				return s.min
			case len(s.buckets) - 1:
				return s.max
			}
			v := s.lowest * math.Pow(s.gamma, float64(i)-0.5)
			return math.Min(math.Max(v, s.min), s.max)
		}
	}
	return s.max
}

// Count returns the number of observations (including weights).
func (s *QuantileSketch) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.count)
}

// Sum returns the weighted total of all observations.
func (s *QuantileSketch) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Merge folds other into s. Both sketches must have the same resolution
// (always true for sketches from NewQuantileSketch). Merging an empty
// sketch is a no-op (min/max and buckets are untouched); merging a sketch
// into itself doubles its contents.
func (s *QuantileSketch) Merge(other *QuantileSketch) error {
	if other == nil {
		return nil
	}
	if other == s {
		// Self-merge: double under a single lock — the two-lock path
		// below would deadlock on the shared mutex.
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.buckets {
			s.buckets[i] *= 2
		}
		s.count *= 2
		s.sum *= 2
		return nil
	}
	// Lock ordering: take the sketches in a fixed (pointer-independent)
	// order is unnecessary here because Merge is the only two-sketch
	// operation and callers merge into a fresh accumulator; a plain
	// two-step copy avoids holding both locks at once.
	other.mu.Lock()
	counts := append([]uint64(nil), other.buckets...)
	oCount, oSum, oMin, oMax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.SameResolution(other) {
		return fmt.Errorf("metrics: merging sketches with different resolutions")
	}
	if oCount == 0 {
		return nil
	}
	if s.count == 0 {
		s.min, s.max = oMin, oMax
	} else {
		s.min = math.Min(s.min, oMin)
		s.max = math.Max(s.max, oMax)
	}
	for i, c := range counts {
		s.buckets[i] += c
	}
	s.count += oCount
	s.sum += oSum
	return nil
}

// SketchState is the serializable form of a QuantileSketch, used by
// checkpoint/restore. Buckets are run-length trimmed (trailing zeros
// dropped) so year-scale checkpoints stay small.
type SketchState struct {
	Buckets []uint64 `json:"buckets"`
	NumBkts int      `json:"num_buckets"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Lowest  float64  `json:"lowest"`
	Gamma   float64  `json:"gamma"`
}

// State exports the sketch's accumulator.
func (s *QuantileSketch) State() SketchState {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := len(s.buckets)
	for last > 0 && s.buckets[last-1] == 0 {
		last--
	}
	return SketchState{
		Buckets: append([]uint64(nil), s.buckets[:last]...),
		NumBkts: len(s.buckets),
		Count:   s.count,
		Sum:     s.sum,
		Min:     s.min,
		Max:     s.max,
		Lowest:  s.lowest,
		Gamma:   s.gamma,
	}
}

// maxSketchBuckets bounds the resolution SketchFromState accepts. Every
// sketch this program writes has defaultSketchBuckets (1100); the cap
// only keeps a doctored count from sizing the allocation.
const maxSketchBuckets = 1 << 16

// SketchFromState rebuilds a sketch from an exported state. States come
// from checkpoint and orchestrator state files, so the accumulator is
// checked for the invariants every reachable sketch holds: a bounded
// resolution, count equal to the bucket total, and finite ordered
// non-negative extremes once anything was observed.
func SketchFromState(st SketchState) (*QuantileSketch, error) {
	if st.NumBkts <= 0 || st.NumBkts > maxSketchBuckets || len(st.Buckets) > st.NumBkts ||
		!(st.Lowest > 0) || !(st.Gamma > 1) || math.IsInf(st.Lowest, 0) || math.IsInf(st.Gamma, 0) {
		return nil, fmt.Errorf("metrics: invalid sketch state (%d/%d buckets, lowest=%v, gamma=%v)",
			len(st.Buckets), st.NumBkts, st.Lowest, st.Gamma)
	}
	var total uint64
	for _, c := range st.Buckets {
		if total+c < total {
			return nil, fmt.Errorf("metrics: invalid sketch state (bucket total overflows)")
		}
		total += c
	}
	if total != st.Count {
		return nil, fmt.Errorf("metrics: invalid sketch state (count %d, buckets hold %d)", st.Count, total)
	}
	if st.Count > 0 && !(st.Min >= 0 && st.Min <= st.Max && !math.IsInf(st.Max, 0)) {
		return nil, fmt.Errorf("metrics: invalid sketch state (min=%v, max=%v over %d observations)",
			st.Min, st.Max, st.Count)
	}
	s := &QuantileSketch{
		buckets:  make([]uint64, st.NumBkts),
		count:    st.Count,
		sum:      st.Sum,
		min:      st.Min,
		max:      st.Max,
		lowest:   st.Lowest,
		gamma:    st.Gamma,
		logGamma: math.Log(st.Gamma),
	}
	copy(s.buckets, st.Buckets)
	return s, nil
}
