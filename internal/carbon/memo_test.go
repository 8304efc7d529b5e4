package carbon

import (
	"sync"
	"testing"
	"time"
)

func memoTestZone() *Zone {
	z := &Zone{
		ID:      "TEST-MEMO",
		Name:    "Memo Test",
		Country: "XX",
		Region:  RegionEurope,
	}
	z.Location.Lat, z.Location.Lon = 48.1, 11.6
	z.Capacity[Solar] = 0.5
	z.Capacity[Wind] = 0.4
	z.Capacity[Nuclear] = 0.2
	z.Capacity[Hydro] = 0.1
	z.Capacity[Gas] = 0.6
	z.Capacity[Coal] = 0.3
	return z
}

// TestMixesMemoEquivalence pins the memo to the direct simulation: the
// cached path must be byte-identical to generate, on both the cold and
// the warm path.
func TestMixesMemoEquivalence(t *testing.T) {
	resetMixCache()
	g := NewGenerator(42)
	z := memoTestZone()
	want := g.generate(z)

	cold := g.Mixes(z)
	warm := g.Mixes(z)
	for name, got := range map[string][]Mix{"cold": cold, "warm": warm} {
		if len(got) != len(want) {
			t.Fatalf("%s: got %d hours, want %d", name, len(got), len(want))
		}
		for h := range want {
			if got[h] != want[h] {
				t.Fatalf("%s: hour %d: got %v, want %v", name, h, got[h], want[h])
			}
		}
	}
}

// TestMixesMemoHit pins the hit path without timing it: after a cold
// Mixes the test overwrites the cached entry, and the next Mixes must
// return the overwritten trace — served from the memo, not regenerated.
func TestMixesMemoHit(t *testing.T) {
	resetMixCache()
	g := NewGenerator(42)
	z := memoTestZone()
	cold := g.Mixes(z)
	marked := append([]Mix(nil), cold...)
	marked[0][Solar] = -1
	key := mixKeyOf(g, z)
	mixCache.Lock()
	_, cached := mixCache.m[key]
	mixCache.m[key] = marked
	mixCache.Unlock()
	if !cached {
		t.Fatal("a cold Mixes cached nothing under its key")
	}
	if got := g.Mixes(z); !mixesEqual(got, marked) {
		t.Fatal("the warm Mixes regenerated the trace instead of returning the cached entry")
	}
}

// TestMixesMemoDefensiveCopy verifies callers get private slices: a
// caller mutating its result must not poison later hits.
func TestMixesMemoDefensiveCopy(t *testing.T) {
	resetMixCache()
	g := NewGenerator(7)
	z := memoTestZone()
	first := g.Mixes(z)
	want := first[0]
	first[0][Solar] = -12345

	second := g.Mixes(z)
	if second[0] != want {
		t.Fatalf("cache poisoned by caller mutation: got %v, want %v", second[0], want)
	}
	if &first[0] == &second[0] {
		t.Fatal("Mixes returned the same backing array twice")
	}
}

// TestMixesMemoKeyDiscriminates verifies the fingerprint covers the
// inputs the model reads: changing seed, year, or capacity must produce
// a different trace, not a stale hit.
func TestMixesMemoKeyDiscriminates(t *testing.T) {
	resetMixCache()
	z := memoTestZone()
	base := NewGenerator(1).Mixes(z)

	otherSeed := NewGenerator(2).Mixes(z)
	if mixesEqual(base, otherSeed) {
		t.Fatal("different seed returned the cached trace")
	}

	leap := &Generator{Seed: 1, Year: 2024}
	if got := leap.Mixes(z); len(got) == len(base) {
		t.Fatalf("leap year trace has %d hours, want more than %d", len(got), len(base))
	}

	zc := memoTestZone()
	zc.Capacity[Coal] = 5
	if mixesEqual(base, NewGenerator(1).Mixes(zc)) {
		t.Fatal("different capacity returned the cached trace")
	}
}

// TestMixesMemoConcurrent hammers one cold key from many goroutines;
// run under -race this checks the lock discipline.
func TestMixesMemoConcurrent(t *testing.T) {
	resetMixCache()
	g := NewGenerator(99)
	z := memoTestZone()
	want := g.generate(z)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := g.Mixes(z)
			if !mixesEqual(got, want) {
				t.Error("concurrent Mixes diverged from the direct simulation")
			}
		}()
	}
	wg.Wait()
}

// TestMixesMemoEviction fills the cache past its cap and checks the
// wholesale drop keeps results correct.
func TestMixesMemoEviction(t *testing.T) {
	resetMixCache()
	z := memoTestZone()
	want := NewGenerator(0).Mixes(z)
	for seed := int64(1); seed <= mixCacheCap+2; seed++ {
		NewGenerator(seed).Mixes(z)
	}
	mixCache.Lock()
	n := len(mixCache.m)
	mixCache.Unlock()
	if n > mixCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", n, mixCacheCap)
	}
	if got := NewGenerator(0).Mixes(z); !mixesEqual(got, want) {
		t.Fatal("post-eviction regeneration diverged")
	}
}

func mixesEqual(a, b []Mix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkCarbonMixes measures the memoized path against the direct
// simulation and reports their ratio. TestMixesMemoHit checks that warm
// calls hit, without timing.
func BenchmarkCarbonMixes(b *testing.B) {
	g := NewGenerator(42)
	z := memoTestZone()

	coldStart := time.Now()
	const coldRuns = 5
	for i := 0; i < coldRuns; i++ {
		resetMixCache()
		g.Mixes(z)
	}
	coldNs := float64(time.Since(coldStart).Nanoseconds()) / coldRuns

	g.Mixes(z) // ensure warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Mixes(z)
	}
	b.StopTimer()
	warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(coldNs/1e6, "cold_ms_per_trace")
	b.ReportMetric(warmNs/1e6, "warm_ms_per_trace")
	b.ReportMetric(coldNs/warmNs, "mixes_memo_speedup_x")
}
