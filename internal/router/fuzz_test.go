package router

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// fuzzBytes reads a fuzz input one byte at a time, as zeros once it is
// used up.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzOracle is a pure RTT table per version: each (version, src, dst)
// answers a fixed latency in [1, 40] ms, or NaN for about one pair in
// eight. It counts its calls.
type fuzzOracle struct {
	seed, version int
	calls         int
}

func (o *fuzzOracle) rtt(src, dst int) float64 {
	h := uint64(o.seed)*0x9e3779b97f4a7c15 ^ uint64(o.version)*0xbf58476d1ce4e5b9 ^ uint64(src)*0x94d049bb133111eb ^ uint64(dst+1)*0x2545f4914f6cdd1d
	h ^= h >> 29
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	if h%8 == 0 {
		return math.NaN()
	}
	return float64(1 + h%40)
}

func (o *fuzzOracle) at(src, dst int) float64 { o.calls++; return o.rtt(src, dst) }

// FuzzRouteSlice routes fuzzed slices — replica sets, per-source counts,
// an RTT oracle that answers NaN for some pairs — with InvalidateRTT
// (to a new oracle version), Retire and RestoreStats between them, and
// checks after every slice:
//   - every offered request is served or dropped, and no replica serves
//     past ⌊CapacityRPS·seconds⌋;
//   - Requests = SLOMet + missed + Dropped and Latency.Count() + Dropped
//     = Requests, cumulatively, with SLOMet the served requests whose
//     latency is within the SLO;
//   - each served request's latency is the current oracle's answer plus
//     ServiceMs (the latency sketch equals one built from the served
//     deltas), so after an invalidation nothing stale is used;
//   - the oracle is asked exactly what the memo contract implies: once per
//     (source, class) pair between invalidations, and again on every
//     route through a pair whose answer was NaN;
//   - a second router, routing the same slices through legacyRoute (the
//     eager path RouteAt replaced), asks its oracle as often and ends the
//     slice with the same served and dropped counts and, bit for bit, the
//     same exported stats.
func FuzzRouteSlice(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 1, 4, 40, 1, 9, 2, 3, 0, 200, 1, 100, 0, 5, 3, 2, 7, 0, 60, 1, 90, 1, 3, 3, 2, 2, 150, 3})
	f.Add([]byte("routing slices through fuzzed replica sets and oracles, with invalidation between them"))
	f.Add([]byte{255, 0, 255, 1, 255, 2, 255, 3, 255, 4, 255, 5, 255, 6, 255, 7, 255, 8, 255, 9, 255, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		const nLoc, slo = 6, 20.0
		svcs := [...]float64{2, 5, 5, 11}
		p := newLegacyPair(t, in.next(), in.next()%2 == 1, slo)
		r, oracle := p.got, p.gotOracle
		ref := metrics.NewQuantileSketch()
		type pair struct {
			src, loc int
			svc      float64
		}
		asked := map[pair]bool{} // finite pairs evaluated since the last memo drop
		var offered, served, met int64
		for slice := 0; slice < 12 && len(in) > 0; slice++ {
			var reps []Replica
			for n := in.next() % 6; n > 0; n-- {
				k := in.next()
				reps = append(reps, Replica{
					ID:            fmt.Sprintf("r%d", k%8),
					Loc:           k % nLoc,
					ZoneID:        fmt.Sprintf("Z%d", k%3),
					CapacityRPS:   float64(in.next() % 50),
					ServiceMs:     svcs[k/nLoc%len(svcs)],
					EnergyPerReqJ: 0.5,
				})
			}
			seconds := float64(1 + in.next()%10)
			sl := p.open(reps, seconds)
			for n := in.next() % 5; n > 0; n-- {
				src, count := in.next()%nLoc, int64(in.next()*in.next())
				before := append([]int64(nil), sl.Served()...)
				wantCalls := oracle.calls
				if count > 0 {
					offered += count
					for _, rep := range reps {
						p := pair{src, rep.Loc, rep.ServiceMs}
						if math.IsNaN(oracle.rtt(src, rep.Loc)) || !asked[p] {
							wantCalls++
							asked[p] = !math.IsNaN(oracle.rtt(src, rep.Loc))
						}
					}
				}
				p.route(src, count)
				if oracle.calls != wantCalls {
					t.Fatalf("slice %d: RouteAt(%d, %d) left the oracle call count at %d, want %d",
						slice, src, count, oracle.calls, wantCalls)
				}
				for i, n := range sl.Served() {
					if d := n - before[i]; d > 0 {
						lat := oracle.rtt(src, reps[i].Loc) + reps[i].ServiceMs
						ref.AddN(lat, d)
						if lat <= slo {
							met += d
						}
					}
				}
			}
			p.close(t, fmt.Sprintf("slice %d", slice))

			var sliceServed int64
			for i, n := range sl.Served() {
				sliceServed += n
				if limit := int64(math.Floor(reps[i].CapacityRPS * seconds)); n > limit {
					t.Fatalf("slice %d: replica %d served %d past its budget %d", slice, i, n, limit)
				}
			}
			served += sliceServed
			st := r.Stats()
			if served+st.Dropped != offered || st.Requests != offered {
				t.Fatalf("slice %d: served %d + dropped %d, requests %d, offered %d", slice, served, st.Dropped, st.Requests, offered)
			}
			if missed := served - st.SLOMet; st.SLOMet != met || st.Requests != st.SLOMet+missed+st.Dropped ||
				st.Latency.Count()+st.Dropped != st.Requests {
				t.Fatalf("slice %d: requests %d, slo_met %d (want %d), served %d, dropped %d, latency count %d",
					slice, st.Requests, st.SLOMet, met, served, st.Dropped, st.Latency.Count())
			}
			got, want := st.Latency.State(), ref.State()
			if math.Abs(got.Sum-want.Sum) > 1e-9*math.Abs(want.Sum) {
				t.Fatalf("slice %d: latency sum %v, want %v", slice, got.Sum, want.Sum)
			}
			got.Sum, want.Sum = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("slice %d: latency sketch\n got  %+v\n want %+v", slice, got, want)
			}

			op := in.next()
			p.between(t, op%4, fmt.Sprintf("r%d", op/4%8))
			if op%4 == 0 || op%4 == 2 {
				clear(asked) // the memo was dropped
			}
		}
	})
}

// TestClassAfterSourceRows routes a replica class the router first sees
// after source rows exist: the rows grow to the new class id, and its
// cells are evaluated from the oracle, not read as zero latency.
func TestClassAfterSourceRows(t *testing.T) {
	rtt := testRTTms
	r := mustRouter(t, Config{SLOms: 20, RTTAt: func(src, dst int) float64 { return rtt[src][dst] }})
	reps := testReplicas()
	route := func(set []Replica, src int) []int64 {
		sl := r.ReuseSlice(set, 100)
		sl.RouteAt(src, 600, flatCI)
		sl.Close()
		return append([]int64(nil), sl.Served()...)
	}
	for _, src := range []int{miami, orlando, tampa, far} {
		route(reps[:1], src) // one class, a row for every source
	}
	// A new class at Tampa: far is 44 + 8 ms from it, past the SLO, so the
	// only way it serves within the SLO is a zero read from an unfilled cell.
	route(reps[2:], far)
	if st := r.Stats(); st.SLOMet != 3*600 || st.Spilled != 2*600 {
		t.Fatalf("slo_met=%d spilled=%d, want 1800/1200", st.SLOMet, st.Spilled)
	}
	if got, want := r.Stats().Latency.State().Max, testRTTms[far][tampa]+reps[2].ServiceMs; got != want {
		t.Errorf("latency max %v, want the new class's %v", got, want)
	}
	// All three classes from a source whose row predates the last two;
	// then Tampa's again after the memo was dropped for new delays.
	if served := route(reps, orlando); served[1] == 0 || r.Stats().SLOMet != 4*600 {
		t.Errorf("served %v slo_met %d, want orl serving and all 600 within the SLO", served, r.Stats().SLOMet)
	}
	rtt[orlando][tampa] = 30 // 30 + 8 ms: past the SLO
	r.InvalidateRTT()
	if served := route(reps[2:], orlando); served[0] != 600 || r.Stats().Spilled != 3*600 {
		t.Errorf("after InvalidateRTT served %v spilled %d, want all 600 spilled to tpa", served, r.Stats().Spilled)
	}
}
