package carbon

import "sync"

// The full-year merit-order simulation is the single most expensive pure
// function in the tree: 8760 hours of trig, two stochastic weather
// processes, and a seven-source dispatch per hour, per zone. Every
// engine construction regenerates the traces for its region, sharded
// runs regenerate them once per shard, and experiment sweeps once per
// configuration — always with identical inputs. This memo makes the
// simulation run once per distinct (generator, zone) and hands every
// caller a private copy of the trace.

// mixKey fingerprints every input generate reads: the generator's seed
// and year, plus the zone fields that shape the trace — ID seeds the
// stream, Region picks the demand season, the location drives solar
// geometry and local time, and the capacity vector drives dispatch.
// Two calls are equal under this key iff generate would produce
// byte-identical traces, so renaming a zone or editing fields the model
// never reads cannot cause a stale hit.
type mixKey struct {
	seed     int64
	year     int
	zoneID   string
	region   Region
	lat, lon float64
	capacity Mix
}

// mixKeyOf is the memo key of (g, z).
func mixKeyOf(g *Generator, z *Zone) mixKey {
	return mixKey{
		seed:     g.Seed,
		year:     g.Year,
		zoneID:   z.ID,
		region:   z.Region,
		lat:      z.Location.Lat,
		lon:      z.Location.Lon,
		capacity: z.Capacity,
	}
}

// mixCacheCap bounds the memo. A full-year trace is 8760 mixes (~550 KB);
// a run touches the zones of one registry, so the cap is sized to hold
// several registries' worth. At the cap the whole map is dropped:
// wholesale eviction keeps hit/miss behavior independent of call order,
// where an LRU's evictions would vary with it.
const mixCacheCap = 64

var mixCache = struct {
	sync.Mutex
	m map[mixKey][]Mix
}{m: make(map[mixKey][]Mix, mixCacheCap)}

// cachedMixes returns a private copy of the memoized trace for (g, z),
// generating and caching it on first sight. Safe for concurrent use;
// the lock is dropped during generation, so two goroutines racing on
// the same cold key both compute (identical, idempotent) traces and one
// write wins.
func cachedMixes(g *Generator, z *Zone) []Mix {
	key := mixKeyOf(g, z)
	mixCache.Lock()
	trace, ok := mixCache.m[key]
	mixCache.Unlock()
	if !ok {
		trace = g.generate(z)
		mixCache.Lock()
		if len(mixCache.m) >= mixCacheCap {
			mixCache.m = make(map[mixKey][]Mix, mixCacheCap)
		}
		mixCache.m[key] = trace
		mixCache.Unlock()
	}
	out := make([]Mix, len(trace))
	copy(out, trace)
	return out
}

// resetMixCache empties the memo; test hook for cold-path measurements.
func resetMixCache() {
	mixCache.Lock()
	mixCache.m = make(map[mixKey][]Mix, mixCacheCap)
	mixCache.Unlock()
}
