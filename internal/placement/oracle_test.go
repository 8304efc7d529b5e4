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

// sweepSolve is the heuristic solver's test oracle: the same greedy
// construction and steepest-descent local search with none of the
// solver's memoization — every pass re-scans every app, and every pair
// cost is re-derived through the Policy. HeuristicSolver skips only scans
// that provably move nothing, so its assignments must equal these byte
// for byte, cold and warm. warm seeds the search exactly as SolveInto's
// does. (Warm solvers under test run through solveNew, placer.go.) It
// never reads the state's candidate slots, so it places with slot -1, nor
// its fit table, which it checks instead (sweepState).
func sweepSolve(p *Problem, pol Policy, warm *Assignment) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := newSweepState(p, pol)
	if warm != nil && len(warm.ServerOf) == len(p.Apps) {
		for i, j := range warm.ServerOf {
			if j >= 0 && j < len(p.Servers) && st.p.fits(i, j, st.free[j]) {
				st.place(i, j, -1)
			}
		}
	} else {
		sweepConstruct(st, pol)
	}
	sweepLocalSearch(st, pol, 8)
	if st.err != nil {
		return nil, st.err
	}

	a := &Assignment{
		ServerOf: append([]int(nil), st.assigned...),
		PowerOn:  append([]bool(nil), st.on...),
	}
	for i, j := range st.assigned {
		if j < 0 {
			a.Unplaced = append(a.Unplaced, i)
		}
	}
	return a, nil
}

// sweepState is the oracle's search state. It gets the solver's fit table
// through the solver's own init path (costMemo.build, state.init) and
// never reads it: each place and unplace is followed by checkFit, so every
// sweep also holds the table's upkeep to a recount along its move
// sequence, which is the solver's own. err keeps the first mismatch.
type sweepState struct {
	*state
	mm  *costMemo
	err error
}

// newSweepState returns the oracle's state for p, nothing placed, its
// fit table checked once before any move.
func newSweepState(p *Problem, pol Policy) *sweepState {
	mm := &costMemo{}
	mm.build(p, pol, true)
	st := &sweepState{state: &state{}, mm: mm}
	st.init(p, mm)
	for i := range p.Apps {
		if !sameRow(st.fit.rows[mm.dem[mm.cls[i]]], p.Demand[i]) && st.err == nil {
			st.err = fmt.Errorf("app %d: its class's table row is not its own demand row", i)
		}
	}
	st.check()
	return st
}

func (st *sweepState) place(i, j, k int) { st.state.place(i, j, k); st.check() }
func (st *sweepState) unplace(i int)     { st.state.unplace(i); st.check() }

func (st *sweepState) check() {
	if st.err == nil {
		st.err = checkFit(st.state, st.mm)
	}
}

// checkFit recounts st's fit table: for every class and every server on
// its gated list, the bit of the class's demand row must equal the row's
// cell tested against the server's current free capacity.
func checkFit(st *state, mm *costMemo) error {
	t := st.fit
	for c, cand := range mm.cand {
		d := mm.dem[c]
		for _, j := range cand {
			if want := t.rows[d][j].Fits(st.free[j]); t.of(d)[j] != want {
				return fmt.Errorf("fit table: row %d (class %d) on server %d reads %v, its demand %v against free %v fits: %v",
					d, c, j, !want, t.rows[d][j], st.free[j], want)
			}
		}
	}
	return nil
}

// sweepConstruct places the most constrained apps first (fewest feasible
// servers, ties in index order), each on its first cheapest server that
// fits.
func sweepConstruct(st *sweepState, pol Policy) {
	p := st.p
	order := make([]int, len(p.Apps))
	options := make([]int, len(p.Apps))
	for i := range order {
		order[i] = i
		options[i] = len(p.FeasibleServers(i))
	}
	sort.SliceStable(order, func(a, b int) bool { return options[order[a]] < options[order[b]] })
	for _, i := range order {
		best, bestCost := -1, math.Inf(1)
		for _, j := range p.Candidates[i] {
			if !st.p.fits(i, j, st.free[j]) {
				continue
			}
			if c := st.placeCost(pol, i, j); c < bestCost {
				best, bestCost = j, c
			}
		}
		if best >= 0 {
			st.place(i, best, -1)
		}
	}
}

// sweepLocalSearch re-scans every app every pass until a pass moves
// nothing or maxPasses run out.
func sweepLocalSearch(st *sweepState, pol Policy, maxPasses int) {
	p := st.p
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range p.Apps {
			cur := st.assigned[i]
			if cur < 0 {
				// Retry unplaced apps: capacity may have shifted.
				for _, j := range p.Candidates[i] {
					if st.p.fits(i, j, st.free[j]) {
						st.place(i, j, -1)
						improved = true
						break
					}
				}
				continue
			}
			// Scan without unplacing: the candidate loop excludes cur, so
			// no candidate's feasibility or cost depends on i's own slot,
			// and a no-move scan leaves the capacity vectors bit-exact
			// (an unplace/place round trip would not: (a+d)-d need not
			// equal a in floating point).
			best, bestCost := cur, st.moveAwareCost(pol, i, cur)
			for _, j := range p.Candidates[i] {
				if j == cur || !st.p.fits(i, j, st.free[j]) {
					continue
				}
				if c := st.placeCost(pol, i, j); c < bestCost-1e-12 {
					best, bestCost = j, c
				}
			}
			if best != cur {
				st.unplace(i)
				st.place(i, best, -1)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// placeCost is the marginal policy cost of placing app i on server j in
// the current state, including activation if j is currently off.
func (st *state) placeCost(pol Policy, i, j int) float64 {
	c := pol.PairCost(st.p, i, j)
	if !st.on[j] {
		c += pol.ActivationCost(st.p, j)
	}
	return c
}

// moveAwareCost is app i's current cost on server j, crediting the
// activation cost when i is the only tenant of a server that was off
// before the batch (moving it away would let the server power down).
func (st *state) moveAwareCost(pol Policy, i, j int) float64 {
	c := pol.PairCost(st.p, i, j)
	if !st.p.Servers[j].PoweredOn && st.loads[j] == 1 {
		c += pol.ActivationCost(st.p, j)
	}
	return c
}

// objective is the placement MILP's objective (Eq. 7) at an assignment:
// the policy's pair costs plus the activation cost of every server that
// is on but was off before the batch.
func objective(p *Problem, pol Policy, serverOf []int, on []bool) float64 {
	var sum float64
	for i, j := range serverOf {
		if j >= 0 {
			sum += pol.PairCost(p, i, j)
		}
	}
	for j, s := range p.Servers {
		if on[j] && !s.PoweredOn {
			sum += pol.ActivationCost(p, j)
		}
	}
	return sum
}

// bruteForce enumerates every assignment of the apps that have a feasible
// server to one of their feasible servers, and returns the least
// objective over those that respect every server's capacity, with the
// apps it dropped (no feasible server: Eq. 3 cannot hold for them, and
// the exact solver reports them unplaced). ok is false when no
// assignment of the kept apps fits.
func bruteForce(p *Problem, pol Policy) (best float64, dropped []int, ok bool) {
	n, m := len(p.Apps), len(p.Servers)
	feasible := make([][]int, n)
	var kept []int
	for i := range p.Apps {
		if feasible[i] = p.FeasibleServers(i); len(feasible[i]) == 0 {
			dropped = append(dropped, i)
		} else {
			kept = append(kept, i)
		}
	}
	serverOf := make([]int, n)
	for i := range serverOf {
		serverOf[i] = -1
	}
	used := make([]cluster.Resources, m)
	on := make([]bool, m)
	best = math.Inf(1)
	var walk func(k int)
	walk = func(k int) {
		if k == len(kept) {
			for j, s := range p.Servers {
				on[j] = s.PoweredOn || hosts(serverOf, j)
			}
			if c := objective(p, pol, serverOf, on); c < best {
				best = c
			}
			return
		}
		i := kept[k]
		for _, j := range feasible[i] {
			next := used[j].Add(p.Demand[i][j])
			if !next.Fits(p.Servers[j].Free) {
				continue
			}
			prev := used[j]
			used[j], serverOf[i] = next, j
			walk(k + 1)
			used[j], serverOf[i] = prev, -1
		}
	}
	walk(0)
	return best, dropped, !math.IsInf(best, 1)
}

// hosts reports whether any app is assigned to server j.
func hosts(serverOf []int, j int) bool {
	for _, s := range serverOf {
		if s == j {
			return true
		}
	}
	return false
}

// TestExactMatchesBruteForce checks the MILP translation — Eq. 3's drop of
// apps with no feasible server, the capacity rows with Eq. 5 folded in,
// and the Eq. 4 activation terms — against exhaustive enumeration: on
// seeded instances of at most 6 apps on at most 4 servers, some servers
// starting powered off and some capacity tight enough that apps compete
// for it, the exact solver at zero gap returns a feasible assignment whose
// objective is the enumerated minimum to 1e-9 relative, or reports the
// instance infeasible exactly when no assignment of the kept apps fits.
// Both legs run every instance: the public Solve, which the certificate
// closes where it can, and the MILP path alone, so the enumeration keeps
// checking the Eq. 3–5 translation on the instances the certificate
// takes. After the distinctInstances dense ones, alikeInstances more are
// workspace views with alike apps, which the MILP solves in classes. A
// third leg states the heuristic's gap to the optimum on the dense ones
// (heuristicGap).
func TestExactMatchesBruteForce(t *testing.T) {
	const alikeInstances = 140
	solver := &ExactSolver{Options: mip.Options{}}
	legs := []struct {
		name  string
		solve func(*Problem, Policy) (*Assignment, error)
	}{
		{"Solve", solver.Solve},
		{"MILP", func(p *Problem, pol Policy) (*Assignment, error) {
			a, _, err := solver.solveMILP(p, pol, nil)
			return a, err
		}},
	}
	for k, pol := range []Policy{CarbonAware{}, LatencyAware{}, EnergyAware{}, IntensityAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			for _, leg := range legs {
				t.Run(leg.name, func(t *testing.T) {
					exactMatchesBruteForce(t, rand.New(rand.NewSource(int64(101+k))), pol, leg.solve, distinctInstances+alikeInstances)
				})
			}
			t.Run("Heuristic", func(t *testing.T) {
				heuristicGap(t, rand.New(rand.NewSource(int64(101+k))), pol, distinctInstances, heuristicGapBounds[pol.Name()])
			})
		})
	}
}

// distinctInstances is the number of TestExactMatchesBruteForce's dense
// instances of all-distinct apps.
const distinctInstances = 260

// gapBound is the heuristic's stated gap to the optimum under one policy:
// the instances where it places fewer apps than the optimum, and the max
// and p99 relative objective gap over the instances where it places as
// many.
type gapBound struct {
	short    int
	max, p99 float64
}

// heuristicGapBounds pins the measured gap per policy, rounded up. The
// README's "Solver inner loop" states the same numbers.
var heuristicGapBounds = map[string]gapBound{
	"CarbonEdge":      {short: 0, max: 0.28, p99: 0.20},
	"Latency-aware":   {short: 0, max: 0.19, p99: 0},
	"Energy-aware":    {short: 1, max: 0.45, p99: 0.21},
	"Intensity-aware": {short: 1, max: 0.34, p99: 0.29},
}

// heuristicGap is TestExactMatchesBruteForce's heuristic leg: the same
// seeded instances, each solved by HeuristicSolver and held to the
// enumerated optimum. The heuristic must return a feasible assignment that
// never beats the optimum, and its gap must stay within bound. Instances
// the enumeration finds infeasible have no optimum to compare to and are
// only counted.
func heuristicGap(t *testing.T, rng *rand.Rand, pol Policy, instances int, bound gapBound) {
	solver := NewHeuristicSolver()
	var short, infeasible int
	var gaps []float64
	for trial := 0; trial < instances; trial++ {
		p := bruteForceInstance(t, rng, false)
		want, dropped, ok := bruteForce(p, pol)
		a, err := solver.Solve(p, pol)
		if err != nil {
			t.Fatalf("trial %d: heuristic failed: %v", trial, err)
		}
		if err := p.CheckFeasible(a); err != nil {
			t.Fatalf("trial %d: heuristic assignment infeasible: %v", trial, err)
		}
		if !ok {
			infeasible++
			continue
		}
		if placedCount(a) < len(p.Apps)-len(dropped) {
			short++
			continue
		}
		got := objective(p, pol, a.ServerOf, a.PowerOn)
		gap := 0.0
		if got != want {
			gap = (got - want) / math.Abs(want)
		}
		if gap < -1e-9 {
			t.Fatalf("trial %d: heuristic objective %.12g beats the enumerated minimum %.12g", trial, got, want)
		}
		gaps = append(gaps, max(gap, 0))
	}
	sort.Float64s(gaps)
	var worst, p99 float64
	n := len(gaps)
	if n > 0 {
		worst, p99 = gaps[n-1], gaps[(99*n+99)/100-1]
	}
	optimal := sort.SearchFloat64s(gaps, math.SmallestNonzeroFloat64)
	t.Logf("%d instances with an optimum: the heuristic places fewer apps on %d; over the other %d it is optimal on %d, max gap %.4g, p99 %.4g (%d infeasible instances skipped)",
		instances-infeasible, short, n, optimal, worst, p99, infeasible)
	if short > bound.short || worst > bound.max || p99 > bound.p99 {
		t.Errorf("heuristic gap (%d short, max %.4g, p99 %.4g) exceeds the stated bound %+v", short, worst, p99, bound)
	}
}

// bruteForceInstance draws one of TestExactMatchesBruteForce's seeded
// instances: at most 6 apps on at most 4 servers, about half of the
// servers tight enough that apps compete for them. With alike set, about
// half of the apps copy an earlier app's (source, SLO, model, rate) and
// the problem is the workspace view, whose classes the MILP solves as
// counts; otherwise it is the dense Build of all-distinct apps.
func bruteForceInstance(t *testing.T, rng *rand.Rand, alike bool) *Problem {
	inst := randomWSInstance(rng, 1+rng.Intn(6), 1+rng.Intn(4))
	for j := range inst.servers {
		s := &inst.servers[j]
		if rng.Intn(2) == 0 {
			// Tight: room for about one or two apps.
			s.Free = s.Free.Scale(0.02 + 0.2*rng.Float64())
		}
	}
	if !alike {
		p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 1; i < len(inst.apps); i++ {
		if rng.Intn(2) == 0 {
			id, src := inst.apps[i].ID, inst.apps[rng.Intn(i)]
			inst.apps[i], inst.apps[i].ID = src, id
		}
	}
	return inst.view(t)
}

// exactMatchesBruteForce is one leg of TestExactMatchesBruteForce: the
// seeded instances, each solved by solve and held to the enumeration;
// those past the first distinctInstances hold alike apps.
func exactMatchesBruteForce(t *testing.T, rng *rand.Rand, pol Policy, solve func(*Problem, Policy) (*Assignment, error), instances int) {
	var solved, infeasible, droppedApps, offUsed, certified, classed int
	for trial := 0; trial < instances; trial++ {
		p := bruteForceInstance(t, rng, trial >= distinctInstances)
		if certify(p, pol) != nil {
			certified++
		}
		if len(p.classRep) > 0 && len(p.classRep) < len(p.Apps) {
			classed++
		}
		want, dropped, ok := bruteForce(p, pol)
		a, err := solve(p, pol)
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: no assignment of the kept apps fits, but the exact solver returned %+v", trial, a)
			}
			infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: exact solver failed on a feasible instance: %v", trial, err)
		}
		if err := p.CheckFeasible(a); err != nil {
			t.Fatalf("trial %d: exact assignment infeasible: %v", trial, err)
		}
		if !reflect.DeepEqual(a.Unplaced, dropped) {
			t.Fatalf("trial %d: exact solver left %v unplaced, want the apps with no feasible server %v", trial, a.Unplaced, dropped)
		}
		if placedCount(a) != len(p.Apps)-len(dropped) {
			t.Fatalf("trial %d: exact solver placed %d of %d kept apps", trial, placedCount(a), len(p.Apps)-len(dropped))
		}
		got := objective(p, pol, a.ServerOf, a.PowerOn)
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("trial %d: exact objective %.12g, enumerated minimum %.12g", trial, got, want)
		}
		solved++
		droppedApps += len(dropped)
		for j, s := range p.Servers {
			if !s.PoweredOn && hosts(a.ServerOf, j) {
				offUsed++
			}
		}
	}
	t.Logf("%d solved, %d infeasible, %d apps dropped, %d powered-off servers switched on; the certificate closes %d of the %d instances; %d hold a class of 2 or more apps",
		solved, infeasible, droppedApps, offUsed, certified, instances, classed)
	if solved < 200 {
		t.Errorf("only %d of %d instances were feasible; need at least 200", solved, instances)
	}
	if infeasible == 0 || droppedApps == 0 || offUsed == 0 {
		t.Errorf("fixture misses a case: %d infeasible instances, %d dropped apps, %d servers switched on",
			infeasible, droppedApps, offUsed)
	}
}
