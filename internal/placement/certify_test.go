package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mip"
)

// certPolicies are the five objectives the certificate is held to, each
// built fresh per instance: CarbonEnergyBlend caches its normalization per
// problem, and an instance is reshaped after its first costs are read.
var certPolicies = []struct {
	name string
	make func() Policy
}{
	{"CarbonAware", func() Policy { return CarbonAware{} }},
	{"LatencyAware", func() Policy { return LatencyAware{} }},
	{"EnergyAware", func() Policy { return EnergyAware{} }},
	{"IntensityAware", func() Policy { return IntensityAware{} }},
	{"CarbonEnergyBlend", func() Policy { return NewCarbonEnergyBlend(0.5) }},
}

// milpOracles are the MILP configurations a certified answer must equal:
// the placement service's default (0.1 % gap, 256-node budget) and a
// zero-gap solve.
var milpOracles = []*ExactSolver{NewExactSolver(), {Options: mip.Options{}}}

// nearTies are the relative offsets certInstance puts between costs that
// would otherwise tie: none (an exact tie), three offsets inside the
// certificate's 1e-6 margin, and one outside it.
var nearTies = []float64{0, 1e-12, 1e-9, 1e-7, 1e-5}

// certInstance draws a problem of at most 5 apps on 5 servers whose costs
// come from three-value palettes, each value shifted by the instance's
// near-tie offset half of the time, so exact ties and near-ties sit at
// the argmin often. Off servers carry zero or positive base power,
// demand entries are positive, zero or negative, and some pairs are
// incompatible or out of SLO, so some apps have no feasible server.
func certInstance(rng *rand.Rand) (*Problem, float64) {
	n, m := 1+rng.Intn(5), 1+rng.Intn(5)
	rel := nearTies[rng.Intn(len(nearTies))]
	near := func(v float64) float64 {
		if rng.Intn(2) == 0 {
			return v
		}
		return v * (1 + rel)
	}
	allOn := rng.Intn(2) == 0
	servers := make([]Server, m)
	for j := range servers {
		servers[j] = Server{
			ID:         fmt.Sprintf("s%d", j),
			DC:         "dc",
			Intensity:  near(float64(100 * (1 + rng.Intn(3)))),
			BasePowerW: float64(40 * rng.Intn(2)),
			PoweredOn:  allOn || rng.Intn(3) > 0,
		}
		for k := range servers[j].Free {
			servers[j].Free[k] = float64(100 * (2 + rng.Intn(8)))
		}
	}
	apps := make([]App, n)
	for i := range apps {
		apps[i] = App{ID: fmt.Sprintf("a%d", i), SLOms: 20}
	}
	p := NewProblem(apps, servers)
	for i := range apps {
		for j := range servers {
			p.Compatible[i][j] = rng.Intn(8) > 0
			p.LatencyMs[i][j] = near(float64(5 * (1 + rng.Intn(3))))
			if rng.Intn(8) == 0 {
				p.LatencyMs[i][j] = 30 // beyond the SLO
			}
			p.PowerW[i][j] = near(float64(10 * (1 + rng.Intn(3))))
			for k := range p.Demand[i][j] {
				switch rng.Intn(8) {
				case 0:
				case 1:
					p.Demand[i][j][k] = -50
				default:
					p.Demand[i][j][k] = float64(50 * (1 + rng.Intn(6)))
				}
			}
		}
	}
	return Stamp(p), rel
}

// argminOf is the assignment the certificate proposes, recomputed from
// the Policy alone: each app's first cheapest feasible server, or -1.
func argminOf(p *Problem, pol Policy) []int {
	out := make([]int, len(p.Apps))
	for i := range p.Apps {
		out[i] = -1
		for _, j := range p.FeasibleServers(i) {
			if out[i] < 0 || pol.PairCost(p, i, j) < pol.PairCost(p, i, out[i]) {
				out[i] = j
			}
		}
	}
	return out
}

// Capacity shapings certInstance's problems get before the verdict: none,
// one dimension of a hosting server set to exactly its summed positive
// demand, the same sum one ulp over Free, or Free between the sum of all
// entries and the sum of the positive ones.
const (
	shapeNone = iota
	shapeAt
	shapeUlpOver
	shapeNegSlack
	numShapes
)

// shapeCapacity applies a shaping to the first server, in app order, that
// hosts an argmin app with positive demand in some dimension, in the
// first such dimension; it reports whether the shaping found a place.
func shapeCapacity(p *Problem, pol Policy, shape int) bool {
	if shape == shapeNone {
		return false
	}
	serverOf := argminOf(p, pol)
	for _, j := range serverOf {
		if j < 0 {
			continue
		}
		for k := range p.Servers[j].Free {
			var pos, all, single float64
			for i, s := range serverOf {
				if s != j {
					continue
				}
				d := p.Demand[i][j][k]
				all += d
				if d > 0 {
					pos += d
					single = math.Max(single, d)
				}
			}
			if pos == 0 {
				continue
			}
			switch shape {
			case shapeAt:
				p.Servers[j].Free[k] = pos
			case shapeUlpOver:
				p.Servers[j].Free[k] = math.Nextafter(pos, math.Inf(-1))
			case shapeNegSlack:
				// Every app still fits alone, so the argmin stands, but
				// only a sum that counts the negative entries fits.
				free := math.Max(all, single)
				if free >= pos {
					continue
				}
				p.Servers[j].Free[k] = free
			}
			return true
		}
	}
	return false
}

// certVerdict restates the certificate's conditions on a problem: ""
// means the argmin assignment must be certified, anything else names the
// condition that must make certify decline.
func certVerdict(p *Problem, pol Policy) string {
	for j, s := range p.Servers {
		if !s.PoweredOn && pol.ActivationCost(p, j) <= 0 {
			return "free-activation"
		}
	}
	serverOf := argminOf(p, pol)
	for i, b := range serverOf {
		if b < 0 {
			continue
		}
		var costs []float64
		for _, j := range p.FeasibleServers(i) {
			costs = append(costs, pol.PairCost(p, i, j))
		}
		sort.Float64s(costs)
		if len(costs) > 1 && costs[1] == costs[0] {
			return "tie"
		}
		if len(costs) > 1 && costs[1]-costs[0] <= 1e-6*math.Max(1, math.Abs(costs[0])) {
			return "near-tie"
		}
		if !p.Servers[b].PoweredOn {
			return "argmin-off"
		}
	}
	for j, s := range p.Servers {
		if !s.PoweredOn {
			continue
		}
		for k := range s.Free {
			var sum float64
			for i, b := range serverOf {
				if b == j && p.Demand[i][j][k] > 0 {
					sum += p.Demand[i][j][k]
				}
			}
			if sum > s.Free[k] {
				return "over-capacity"
			}
		}
	}
	return ""
}

// checkCertified holds a certified assignment to the MILP: byte-equal to
// every oracle configuration, cold and warm-started from the heuristic's
// answer, and returned by the public entry with zero nodes explored.
func checkCertified(t *testing.T, p *Problem, pol Policy, got *Assignment) {
	t.Helper()
	if err := p.CheckFeasible(got); err != nil {
		t.Fatalf("certified assignment infeasible: %v", err)
	}
	warm, err := NewHeuristicSolver().Solve(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range milpOracles {
		for _, w := range []*Assignment{nil, warm} {
			want, _, err := oracle.solveMILP(p, pol, w)
			if err != nil {
				t.Fatalf("MILP (%+v, warm %v) failed on a certified instance: %v", oracle.Options, w != nil, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("certified %+v, MILP (%+v, warm %v) %+v", got, oracle.Options, w != nil, want)
			}
		}
	}
	nodes := -1
	public := NewExactSolver()
	public.nodes = &nodes
	a, err := public.Solve(p, pol)
	if err != nil || nodes != 0 || !reflect.DeepEqual(a, got) {
		t.Fatalf("public solve returned %+v after %d nodes (err %v), want the certified %+v after 0", a, nodes, err, got)
	}
}

// TestCertifiedMatchesMILP is the certificate's differential test: on
// 2 000 seeded instances per policy (certInstance, capacity-shaped by
// shapeCapacity), certify returns an assignment exactly when
// certVerdict says the argmin is provably the MILP's unique optimum, and
// every assignment it returns equals the MILP's byte for byte.
func TestCertifiedMatchesMILP(t *testing.T) {
	const instances = 2000
	for k, cp := range certPolicies {
		t.Run(cp.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(211 + k)))
			var certified, tight, dropped int
			declined := map[string]int{}
			tieDeclined := map[float64]int{}
			shapeSeen := make([]int, numShapes)
			for trial := 0; trial < instances; trial++ {
				p, rel := certInstance(rng)
				shape := rng.Intn(numShapes)
				applied := shapeCapacity(p, cp.make(), shape)
				if applied {
					shapeSeen[shape]++
				}
				pol := cp.make()
				want := certVerdict(p, pol)
				got := certify(p, pol)
				if (got != nil) != (want == "") {
					t.Fatalf("trial %d: certify returned %+v, verdict %q", trial, got, want)
				}
				if got == nil {
					declined[want]++
					if want == "near-tie" {
						tieDeclined[rel]++
					}
					continue
				}
				if applied && (shape == shapeUlpOver || shape == shapeNegSlack) {
					t.Fatalf("trial %d: certified a server whose positive demand was shaped past Free (shape %d)", trial, shape)
				}
				checkCertified(t, p, pol, got)
				certified++
				dropped += len(got.Unplaced)
				if shape == shapeAt {
					tight++
				}
			}
			t.Logf("certified %d of %d (%.1f %%; %d at exact capacity, %d apps dropped); declined %v; near-ties declined by offset %v; shapings applied %v",
				certified, instances, 100*float64(certified)/instances, tight, dropped, declined, tieDeclined, shapeSeen)
			if certified < instances/10 || tight == 0 || dropped == 0 {
				t.Errorf("fixture misses a case: %d certified, %d at exact capacity, %d dropped apps", certified, tight, dropped)
			}
			for _, rel := range nearTies[1 : len(nearTies)-1] {
				if tieDeclined[rel] == 0 {
					t.Errorf("no near-tie at relative offset %g was declined", rel)
				}
			}
			if declined["tie"] == 0 || declined["over-capacity"] == 0 || declined["free-activation"] == 0 {
				t.Errorf("fixture misses a decline: %v", declined)
			}
		})
	}
}

// fuzzInstance decodes bytes into a problem of at most 4 apps on 4
// servers and one of the five policies. Every field comes from a small
// palette, so exact ties and exactly-full servers are common; missing
// bytes read as zero.
func fuzzInstance(data []byte) (*Problem, Policy) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n, m := 1+next()%4, 1+next()%4
	pol := certPolicies[next()%len(certPolicies)].make()
	rel := nearTies[next()%len(nearTies)]
	near := func(v float64, b int) float64 {
		if b&1 == 0 {
			return v
		}
		return v * (1 + rel)
	}
	servers := make([]Server, m)
	for j := range servers {
		b := next()
		servers[j] = Server{
			ID:         fmt.Sprintf("s%d", j),
			Intensity:  near(float64(100*(1+(b>>1)%3)), b),
			BasePowerW: float64(40 * ((b >> 3) % 2)),
			PoweredOn:  (b>>4)%4 != 0,
		}
		for k := range servers[j].Free {
			servers[j].Free[k] = float64(100 * (next() % 8))
		}
	}
	apps := make([]App, n)
	for i := range apps {
		apps[i] = App{ID: fmt.Sprintf("a%d", i), SLOms: 20}
	}
	p := NewProblem(apps, servers)
	for i := range apps {
		for j := range servers {
			b := next()
			p.Compatible[i][j] = b%8 != 0
			p.LatencyMs[i][j] = near(float64(5*(1+(b>>3)%3)), b>>5)
			if b>>6 == 3 {
				p.LatencyMs[i][j] = 30
			}
			c := next()
			p.PowerW[i][j] = near(float64(10*(1+c%3)), c>>2)
			for k := range p.Demand[i][j] {
				switch d := next(); d % 8 {
				case 0:
				case 1:
					p.Demand[i][j][k] = -50
				default:
					p.Demand[i][j][k] = float64(50 * (d >> 3))
				}
			}
		}
	}
	return Stamp(p), pol
}

// FuzzCertifiedMatchesMILP decodes arbitrary bytes into a small instance
// and policy (fuzzInstance). Nothing may panic, and the certificate must
// either decline or return exactly the MILP's assignment.
func FuzzCertifiedMatchesMILP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 1, 0x10, 4, 4, 4, 4, 0x11, 2, 2, 2, 2, 0x12, 7, 7, 7, 7})
	f.Add([]byte{1, 1, 2, 2, 0x00, 1, 1, 1, 1, 9, 9, 16, 16, 16, 16})
	f.Add([]byte{2, 0, 4, 3, 0x01, 2, 3, 4, 5, 0x21, 6, 6, 6, 6, 0xff, 0xfe, 0x08, 0x10, 0x18, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, pol := fuzzInstance(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("fuzzInstance built an invalid problem: %v", err)
		}
		got := certify(p, pol)
		if got == nil {
			return
		}
		want, _, err := NewExactSolver().solveMILP(p, pol, nil)
		if err != nil {
			t.Fatalf("certified %+v, but the MILP failed: %v", got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("certified %+v, MILP %+v", got, want)
		}
	})
}

// TestCertifyDeclinesDegenerateInputs covers what the generators never
// draw: non-finite costs and a problem with no servers (whose MILP has no
// variables).
func TestCertifyDeclinesDegenerateInputs(t *testing.T) {
	servers := []Server{
		{ID: "s0", PoweredOn: true, Intensity: 100, Free: cluster.NewResources(1000, 1000, 1000, 1000)},
		{ID: "s1", PoweredOn: true, Intensity: 200, Free: cluster.NewResources(1000, 1000, 1000, 1000)},
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := NewProblem([]App{{ID: "a0", SLOms: 20}}, servers)
		p.Compatible[0][0], p.Compatible[0][1] = true, true
		p.PowerW[0][0], p.PowerW[0][1] = w, 10
		if a := certify(Stamp(p), CarbonAware{}); a != nil {
			t.Errorf("power %v: certified %+v", w, a)
		}
	}
	if a := certify(Stamp(NewProblem([]App{{ID: "a0"}}, nil)), CarbonAware{}); a != nil {
		t.Errorf("no servers: certified %+v", a)
	}
}
