package metrics

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile computes the true quantile by sorting (the reference the
// sketch is checked against).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// relErr is the acceptance band for the default sketch resolution: the
// bucket width is gamma-1 = 2%, so a reported quantile sits within ~2% of
// some value straddling the true rank.
const relErr = 0.03

func checkQuantiles(t *testing.T, name string, values []float64) {
	t.Helper()
	s := NewQuantileSketch()
	for _, v := range values {
		s.AddN(v, 1)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		want := exactQuantile(sorted, q)
		got := s.Quantile(q)
		if want == 0 {
			continue
		}
		if math.Abs(got-want)/want > relErr {
			t.Errorf("%s q=%.2f: sketch %.4f vs exact %.4f (rel err %.3f)",
				name, q, got, want, math.Abs(got-want)/want)
		}
	}
	if s.Count() != int64(len(values)) {
		t.Errorf("%s: count %d, want %d", name, s.Count(), len(values))
	}
	if got := s.min; got != sorted[0] {
		t.Errorf("%s: min %.4f, want exact %.4f", name, got, sorted[0])
	}
	if got := s.max; got != sorted[len(sorted)-1] {
		t.Errorf("%s: max %.4f, want exact %.4f", name, got, sorted[len(sorted)-1])
	}
}

func TestSketchAccuracyKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200000
	uniform := make([]float64, n)
	exponential := make([]float64, n)
	lognormal := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = 1 + 99*rng.Float64()
		exponential[i] = rng.ExpFloat64() * 12 // mean-12ms latencies
		lognormal[i] = math.Exp(rng.NormFloat64()*0.8 + 2)
	}
	checkQuantiles(t, "uniform(1,100)", uniform)
	checkQuantiles(t, "exp(12)", exponential)
	checkQuantiles(t, "lognormal", lognormal)
}

func TestSketchWeightedAddMatchesRepeatedAdd(t *testing.T) {
	a, b := NewQuantileSketch(), NewQuantileSketch()
	values := []float64{0.5, 3, 3, 3, 17, 17, 250}
	for _, v := range values {
		a.AddN(v, 1)
	}
	b.AddN(0.5, 1)
	b.AddN(3, 3)
	b.AddN(17, 2)
	b.AddN(250, 1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%.2f: Add %.4f != AddN %.4f", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Errorf("count/sum diverged: (%d, %.2f) vs (%d, %.2f)", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
}

func TestSketchOrderIndependence(t *testing.T) {
	// The sketch must be a pure function of the inserted multiset.
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.ExpFloat64() * 20
	}
	forward, backward := NewQuantileSketch(), NewQuantileSketch()
	for _, v := range values {
		forward.AddN(v, 1)
	}
	for i := len(values) - 1; i >= 0; i-- {
		backward.AddN(values[i], 1)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if forward.Quantile(q) != backward.Quantile(q) {
			t.Errorf("q=%.2f: order-dependent result %.6f vs %.6f", q, forward.Quantile(q), backward.Quantile(q))
		}
	}
}

func TestSketchMerge(t *testing.T) {
	whole, left, right := NewQuantileSketch(), NewQuantileSketch(), NewQuantileSketch()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 8
		whole.AddN(v, 1)
		if i%2 == 0 {
			left.AddN(v, 1)
		} else {
			right.AddN(v, 1)
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	if left.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", left.Count(), whole.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
		if left.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%.2f: merged %.6f != whole %.6f", q, left.Quantile(q), whole.Quantile(q))
		}
	}
	if left.min != whole.min || left.max != whole.max {
		t.Errorf("merged extremes [%.4f, %.4f] != whole [%.4f, %.4f]",
			left.min, left.max, whole.min, whole.max)
	}
	if err := left.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestSketchEmptyAndEdgeValues(t *testing.T) {
	s := NewQuantileSketch()
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(sketchMean(s)) {
		t.Error("empty sketch should report NaN")
	}
	s.AddN(-5, 1)         // clamped to 0
	s.AddN(0, 1)          // below lowest bucket boundary
	s.AddN(math.NaN(), 1) // clamped to 0
	s.AddN(1e12, 1)       // beyond the top bucket: clamped, max stays exact
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.min != 0 {
		t.Errorf("min = %v, want 0", s.min)
	}
	if s.max != 1e12 {
		t.Errorf("max = %v, want 1e12", s.max)
	}
	if q := s.Quantile(1); q != 1e12 {
		t.Errorf("q=1 -> %v, want clamped to exact max", q)
	}
	s.AddN(3, 0)
	s.AddN(3, -2)
	if s.Count() != 4 {
		t.Error("non-positive weights must be no-ops")
	}
}

func TestSketchConcurrentAdds(t *testing.T) {
	// Concurrent adders must race-cleanly produce the same multiset as a
	// serial insert (run under -race in CI).
	s := NewQuantileSketch()
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				s.AddN(rng.ExpFloat64()*10, 1)
			}
		}(w)
	}
	wg.Wait()

	serial := NewQuantileSketch()
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWorker; i++ {
			serial.AddN(rng.ExpFloat64()*10, 1)
		}
	}
	if s.Count() != int64(workers*perWorker) {
		t.Fatalf("lost adds: %d", s.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if s.Quantile(q) != serial.Quantile(q) {
			t.Errorf("q=%.2f: concurrent %.6f != serial %.6f", q, s.Quantile(q), serial.Quantile(q))
		}
	}
}

// TestSketchEmptyEdgeCases table-tests the zero-count corners: quantiles
// of an empty sketch, merging an empty sketch in either direction, and
// bad quantile arguments must neither panic nor skew buckets.
func TestSketchEmptyEdgeCases(t *testing.T) {
	filled := func() *QuantileSketch {
		s := NewQuantileSketch()
		for _, v := range []float64{1, 2, 3, 4, 5} {
			s.AddN(v, 1)
		}
		return s
	}
	cases := []struct {
		name  string
		build func() *QuantileSketch
		// want describes the sketch after the scenario: count, and the
		// expected p50 (NaN = sketch must report empty).
		count int64
		p50   float64
	}{
		{"empty quantile", NewQuantileSketch, 0, math.NaN()},
		{"empty merged into empty", func() *QuantileSketch {
			s := NewQuantileSketch()
			if err := s.Merge(NewQuantileSketch()); err != nil {
				t.Fatal(err)
			}
			return s
		}, 0, math.NaN()},
		{"empty merged into filled", func() *QuantileSketch {
			s := filled()
			if err := s.Merge(NewQuantileSketch()); err != nil {
				t.Fatal(err)
			}
			return s
		}, 5, 3},
		{"filled merged into empty", func() *QuantileSketch {
			s := NewQuantileSketch()
			if err := s.Merge(filled()); err != nil {
				t.Fatal(err)
			}
			return s
		}, 5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build()
			if got := s.Count(); got != tc.count {
				t.Errorf("count = %d, want %d", got, tc.count)
			}
			got := s.Quantile(0.5)
			if math.IsNaN(tc.p50) {
				if !math.IsNaN(got) {
					t.Errorf("p50 = %v, want NaN", got)
				}
				for _, m := range []float64{sketchMean(s)} {
					if !math.IsNaN(m) {
						t.Errorf("empty sketch stat = %v, want NaN", m)
					}
				}
				return
			}
			if math.Abs(got-tc.p50)/tc.p50 > relErr {
				t.Errorf("p50 = %v, want ~%v", got, tc.p50)
			}
			// Min/max must be exact — an empty merge must not disturb them.
			if s.min != 1 || s.max != 5 {
				t.Errorf("min/max = %v/%v, want 1/5", s.min, s.max)
			}
		})
	}
}

func TestSketchMergeEmptyKeepsMinMax(t *testing.T) {
	// Regression shape: an empty sketch carries zero min/max fields;
	// merging it must not pull the target's min to 0 or touch buckets.
	s := NewQuantileSketch()
	s.AddN(10, 1)
	s.AddN(20, 1)
	if err := s.Merge(NewQuantileSketch()); err != nil {
		t.Fatal(err)
	}
	if s.min != 10 || s.max != 20 || s.Count() != 2 {
		t.Errorf("merge of empty skewed the sketch: min=%v max=%v n=%d", s.min, s.max, s.Count())
	}
	if got := s.Sum(); got != 30 {
		t.Errorf("sum = %v, want 30", got)
	}
}

func TestSketchSelfMergeDoubles(t *testing.T) {
	// Merging a sketch into itself must not deadlock on its own mutex;
	// it doubles the multiset (min/max/quantiles unchanged).
	s := NewQuantileSketch()
	for _, v := range []float64{2, 4, 8} {
		s.AddN(v, 1)
	}
	p50 := s.Quantile(0.5)
	done := make(chan error, 1)
	go func() { done <- s.Merge(s) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-merge deadlocked")
	}
	if s.Count() != 6 || s.Sum() != 28 {
		t.Errorf("self-merge: n=%d sum=%v, want 6/28", s.Count(), s.Sum())
	}
	if s.min != 2 || s.max != 8 || s.Quantile(0.5) != p50 {
		t.Errorf("self-merge moved the distribution: min=%v max=%v p50=%v", s.min, s.max, s.Quantile(0.5))
	}
}

func TestSketchQuantileArgumentClamping(t *testing.T) {
	s := NewQuantileSketch()
	s.AddN(1, 1)
	s.AddN(100, 1)
	if got := s.Quantile(-0.5); got != 1 {
		t.Errorf("q<0 = %v, want exact min", got)
	}
	if got := s.Quantile(1.5); got != 100 {
		t.Errorf("q>1 = %v, want exact max", got)
	}
	if got := s.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("q=NaN = %v, want NaN", got)
	}
}

func TestSketchStateRoundTrip(t *testing.T) {
	s := NewQuantileSketch()
	for i := 0; i < 5000; i++ {
		s.AddN(float64(i%97)/3+0.5, int64(i%5+1))
	}
	restored, err := SketchFromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.Sum() != s.Sum() ||
		restored.min != s.min || restored.max != s.max {
		t.Fatalf("restored aggregates diverge: %v vs %v", restored, s)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if restored.Quantile(q) != s.Quantile(q) {
			t.Errorf("q=%v: restored %v, original %v", q, restored.Quantile(q), s.Quantile(q))
		}
	}
	// Restored sketches keep full resolution: merging with a fresh sketch
	// must still work.
	if err := restored.Merge(NewQuantileSketch()); err != nil {
		t.Fatalf("merge after restore: %v", err)
	}
	if _, err := SketchFromState(SketchState{}); err == nil {
		t.Error("zero-value sketch state accepted")
	}
}

func TestSummaryAndCounterStateRoundTrip(t *testing.T) {
	var sum Summary
	for _, v := range []float64{3, -1, 7.5, 0.25} {
		sum.Add(v)
	}
	back := SummaryFromState(sum.State())
	if back != sum {
		t.Fatalf("summary round-trip diverged: %+v vs %+v", back, sum)
	}
	c := NewCounter()
	c.Inc("a", 3)
	c.Inc("b", 9)
	if rc := CounterFromState(c.State()); !maps.Equal(rc.State(), c.State()) {
		t.Errorf("counter round-trip diverged: %v vs %v", rc.State(), c.State())
	}
}

// sameSketchState compares two exported states bit for bit (the float
// fields by their bits, so -0 and +0 differ and no NaN slips through ==).
func sameSketchState(a, b SketchState) bool {
	if len(a.Buckets) != len(b.Buckets) || a.NumBkts != b.NumBkts || a.Count != b.Count {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	bits := math.Float64bits
	return bits(a.Sum) == bits(b.Sum) && bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max) &&
		bits(a.Lowest) == bits(b.Lowest) && bits(a.Gamma) == bits(b.Gamma)
}

// TestSketchAddObsMatchesAddN is the contract AddObs is used under: a
// batch of pre-bucketed observations leaves the sketch in the state the
// same sequence of AddN calls does — every bucket, and the float sum and
// extremes bit for bit — including the values the sketch clamps and the
// weights it ignores.
func TestSketchAddObsMatchesAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type entry struct {
		v float64
		n int64
	}
	entries := []entry{
		{math.NaN(), 3}, {-4.5, 2}, {0, 1}, {math.Copysign(0, -1), 1},
		{12.5, 0}, {12.5, -7}, {defaultSketchLowest, 4}, {1e12, 5},
	}
	for i := 0; i < 4000; i++ {
		entries = append(entries, entry{math.Exp(rng.NormFloat64()*3 + 2), int64(rng.Intn(2000)) - 100})
	}
	one, batch := NewQuantileSketch(), NewQuantileSketch()
	var obs []Obs
	for k, e := range entries {
		one.AddN(e.v, e.n)
		obs = append(obs, Obs{V: e.v, N: e.n, Bucket: batch.Bucket(e.v)})
		// Fold in uneven batches, so batch boundaries are exercised too.
		if k%37 == 0 || k == len(entries)-1 {
			batch.AddObs(obs)
			obs = obs[:0]
		}
	}
	if !sameSketchState(one.State(), batch.State()) {
		t.Fatalf("AddObs diverged from AddN:\n addn: %+v\n obs:  %+v", one.State(), batch.State())
	}
	batch.AddObs(nil)
	if !sameSketchState(one.State(), batch.State()) {
		t.Error("empty AddObs changed the sketch")
	}
}

// TestSketchBucketMatchesAddN pins Bucket(v) to the bucket AddN(v, 1)
// increments, at the places the index arithmetic can be off by one: the
// lowest boundary, exact powers of gamma, and past the top bucket (+Inf
// included: its index once converted to a negative int and panicked).
func TestSketchBucketMatchesAddN(t *testing.T) {
	values := []float64{
		math.NaN(), -1, 0, defaultSketchLowest / 2, defaultSketchLowest,
		math.Nextafter(defaultSketchLowest, 1), 1, 20, 1e7, 1e300, math.Inf(1),
	}
	for _, k := range []float64{1, 2, 3, 10, 500, defaultSketchBuckets - 2, defaultSketchBuckets - 1, defaultSketchBuckets} {
		p := defaultSketchLowest * math.Pow(defaultSketchGamma, k)
		values = append(values, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)))
	}
	for _, v := range values {
		s := NewQuantileSketch()
		b := s.Bucket(v)
		s.AddN(v, 1)
		st := s.State()
		if got := len(st.Buckets) - 1; got != int(b) || st.Buckets[got] != 1 {
			t.Errorf("Bucket(%v) = %d, AddN incremented bucket %d", v, b, got)
		}
	}
}

// TestSketchFromStateRejectsHostileStates feeds SketchFromState the
// accumulators no sketch can reach — the shapes a doctored checkpoint or
// orchestrator state file can carry. Each must come back as an error:
// before, an oversized num_buckets panicked in make and the rest restored
// into sketches whose Quantile answers from outside the data.
func TestSketchFromStateRejectsHostileStates(t *testing.T) {
	good := func() SketchState {
		s := NewQuantileSketch()
		s.AddN(5, 10)
		s.AddN(40, 2)
		return s.State()
	}
	if _, err := SketchFromState(good()); err != nil {
		t.Fatalf("baseline state rejected: %v", err)
	}
	empty := NewQuantileSketch().State()
	if _, err := SketchFromState(empty); err != nil {
		t.Fatalf("empty state rejected: %v", err)
	}
	cases := map[string]func(*SketchState){
		"num_buckets 1<<62":       func(st *SketchState) { st.NumBkts = 1 << 62 },
		"num_buckets above cap":   func(st *SketchState) { st.NumBkts = maxSketchBuckets + 1 },
		"num_buckets negative":    func(st *SketchState) { st.NumBkts = -1 },
		"more buckets than count": func(st *SketchState) { st.NumBkts = len(st.Buckets) - 1 },
		"count above buckets":     func(st *SketchState) { st.Count++ },
		"count below buckets":     func(st *SketchState) { st.Count-- },
		"count without buckets":   func(st *SketchState) { st.Buckets = nil },
		"bucket total overflows": func(st *SketchState) {
			st.Buckets[0], st.Buckets[1] = math.MaxUint64, st.Count+1
		},
		"min above max":     func(st *SketchState) { st.Min, st.Max = st.Max, st.Min },
		"min NaN":           func(st *SketchState) { st.Min = math.NaN() },
		"max NaN":           func(st *SketchState) { st.Max = math.NaN() },
		"max +Inf":          func(st *SketchState) { st.Max = math.Inf(1) },
		"min -Inf":          func(st *SketchState) { st.Min = math.Inf(-1) },
		"min negative":      func(st *SketchState) { st.Min = -1 },
		"lowest zero":       func(st *SketchState) { st.Lowest = 0 },
		"lowest NaN":        func(st *SketchState) { st.Lowest = math.NaN() },
		"gamma one":         func(st *SketchState) { st.Gamma = 1 },
		"gamma NaN":         func(st *SketchState) { st.Gamma = math.NaN() },
		"gamma +Inf":        func(st *SketchState) { st.Gamma = math.Inf(1) },
		"empty with bucket": func(st *SketchState) { *st = empty; st.Buckets = []uint64{1} },
	}
	for name, doctor := range cases {
		st := good()
		doctor(&st)
		if sk, err := SketchFromState(st); err == nil {
			t.Errorf("%s: accepted (p50=%v)", name, sk.Quantile(0.5))
		}
	}
}

// TestSketchSameResolution: bucket indices travel between sketches exactly
// when all three geometry parameters agree, and Merge refuses the rest.
func TestSketchSameResolution(t *testing.T) {
	a, b := NewQuantileSketch(), NewQuantileSketch()
	b.AddN(3, 1)
	if !a.SameResolution(b) || !b.SameResolution(a) {
		t.Error("two default sketches disagree on resolution")
	}
	for name, mutate := range map[string]func(*SketchState){
		"gamma":   func(st *SketchState) { st.Gamma = 1.05 },
		"lowest":  func(st *SketchState) { st.Lowest = 1e-2 },
		"buckets": func(st *SketchState) { st.NumBkts = 900 },
	} {
		st := NewQuantileSketch().State()
		mutate(&st)
		other, err := SketchFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		if a.SameResolution(other) || other.SameResolution(a) {
			t.Errorf("%s differs but SameResolution holds", name)
		}
		if err := a.Merge(other); err == nil {
			t.Errorf("%s differs but Merge accepted it", name)
		}
	}
}

// refSketch is a test-local accumulator that folds every observation's
// extremes through math.Min/math.Max, the form accumulate's plain
// compares must reproduce bit for bit.
type refSketch struct{ st SketchState }

func newRefSketch(st SketchState) *refSketch {
	st.Buckets = append(make([]uint64, 0, st.NumBkts), st.Buckets...)
	st.Buckets = st.Buckets[:st.NumBkts]
	return &refSketch{st: st}
}

func (r *refSketch) accumulate(v float64, n int64, bucket int32) {
	if v != v || v < 0 {
		v = 0
	}
	if r.st.Count == 0 {
		r.st.Min, r.st.Max = v, v
	} else {
		r.st.Min = math.Min(r.st.Min, v)
		r.st.Max = math.Max(r.st.Max, v)
	}
	r.st.Buckets[bucket] += uint64(n)
	r.st.Count += uint64(n)
	r.st.Sum += v * float64(n)
}

// state trims trailing empty buckets the way QuantileSketch.State does.
func (r *refSketch) state() SketchState {
	st := r.st
	last := len(st.Buckets)
	for last > 0 && st.Buckets[last-1] == 0 {
		last--
	}
	st.Buckets = append([]uint64(nil), st.Buckets[:last]...)
	return st
}

// TestSketchFoldEdgeValues holds AddN, AddObs and Merge to refSketch over
// the values where a plain compare could part from math.Min/math.Max:
// the signed zeros, the smallest subnormal, +Inf, and the NaN and
// negative values clampObs maps to +0. Each runs in several orders, from
// a fresh sketch and from restored states.
func TestSketchFoldEdgeValues(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 5e-324, 1e-3, 1e300, math.Inf(1), math.NaN(), -1}
	orders := [][]float64{edge, make([]float64, len(edge))}
	for i, v := range edge {
		orders[1][len(edge)-1-i] = v
	}
	rng := rand.New(rand.NewSource(32))
	for k := 0; k < 30; k++ {
		o := append([]float64(nil), edge...)
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		orders = append(orders, o)
	}
	// Every ordered pair, so each value meets each other one as the first
	// extreme and as the later observation.
	for _, a := range edge {
		for _, b := range edge {
			orders = append(orders, []float64{a, b})
		}
	}

	seen := NewQuantileSketch()
	seen.AddN(2.5, 3)
	seen.AddN(7, 1)
	wide := NewQuantileSketch()
	wide.AddN(0, 1)
	wide.AddN(1e300, 2)
	starts := []struct {
		name string
		st   *SketchState // nil = a fresh NewQuantileSketch
	}{
		{"fresh", nil},
		{"restored-empty", ptr(NewQuantileSketch().State())},
		{"restored", ptr(seen.State())},
		{"restored-wide", ptr(wide.State())},
	}
	modes := map[string]func(s *QuantileSketch, vs []float64){
		"AddN": func(s *QuantileSketch, vs []float64) {
			for j, v := range vs {
				s.AddN(v, int64(1+j))
			}
		},
		"AddObs": func(s *QuantileSketch, vs []float64) {
			obs := make([]Obs, len(vs))
			for j, v := range vs {
				obs[j] = Obs{V: v, N: int64(1 + j), Bucket: s.Bucket(v)}
			}
			s.AddObs(obs)
		},
		"Merge": func(s *QuantileSketch, vs []float64) {
			for j, v := range vs {
				o := NewQuantileSketch()
				o.AddN(v, int64(1+j))
				if err := s.Merge(o); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for _, start := range starts {
		for mode, run := range modes {
			for _, vs := range orders {
				s := NewQuantileSketch()
				if start.st != nil {
					var err error
					if s, err = SketchFromState(*start.st); err != nil {
						t.Fatal(err)
					}
				}
				ref := newRefSketch(s.State())
				for j, v := range vs {
					ref.accumulate(v, int64(1+j), s.Bucket(v))
				}
				run(s, vs)
				if got, want := s.State(), ref.state(); !sameSketchState(got, want) {
					t.Errorf("%s %s %v:\n got  %+v\n want %+v", start.name, mode, vs, got, want)
				}
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// sketchMean is the sketch's weighted mean, or NaN when it is empty.
func sketchMean(s *QuantileSketch) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}
