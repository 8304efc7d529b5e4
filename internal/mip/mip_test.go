package mip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Optimum: a + c? 10+7=17 weight 5; b + c = 20 weight 6. => 20.
	p := NewProblem(3)
	_ = p.SetObjective(0, -10)
	_ = p.SetObjective(1, -13)
	_ = p.SetObjective(2, -7)
	_ = p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
	for i := 0; i < 3; i++ {
		_ = p.SetBinary(i)
	}
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Errorf("objective = %v, want -20", sol.Objective)
	}
	if math.Round(sol.X[1]) != 1 || math.Round(sol.X[2]) != 1 || math.Round(sol.X[0]) != 0 {
		t.Errorf("x = %v, want [0 1 1]", sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. x >= 2.3, x integer => 3.
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2.3)
	_ = p.SetInteger(0)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-3) > 1e-9 {
		t.Errorf("sol = %+v, want x=3", sol)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 2x + y, x integer, y continuous, s.t. x + y >= 3.5, x <= 2.
	// Best: x=0, y=3.5 -> 3.5. (2x is expensive.)
	p := NewProblem(2)
	_ = p.SetObjective(0, 2)
	_ = p.SetObjective(1, 1)
	_ = p.AddConstraint(map[int]float64{0: 1, 1: 1}, lp.GE, 3.5)
	_ = p.SetInteger(0)
	_ = p.SetUpper(0, 2)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3.5) > 1e-6 {
		t.Errorf("sol = %+v, want obj 3.5", sol)
	}
}

func TestInfeasibleIntegral(t *testing.T) {
	// 0.4 <= x <= 0.6 has a continuous point but no integer point.
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(map[int]float64{0: 1}, lp.GE, 0.4)
	_ = p.AddConstraint(map[int]float64{0: 1}, lp.LE, 0.6)
	_ = p.SetInteger(0)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleLP(t *testing.T) {
	p := NewProblem(1)
	_ = p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)
	_ = p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective(0, -1)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment; binary x[i][j], each row/col exactly once.
	cost := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	// Optimum: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
	p := NewProblem(9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			_ = p.SetObjective(i*3+j, cost[i][j])
			_ = p.SetBinary(i*3 + j)
		}
	}
	for i := 0; i < 3; i++ {
		rowC := map[int]float64{}
		colC := map[int]float64{}
		for j := 0; j < 3; j++ {
			rowC[i*3+j] = 1
			colC[j*3+i] = 1
		}
		_ = p.AddConstraint(rowC, lp.EQ, 1)
		_ = p.AddConstraint(colC, lp.EQ, 1)
	}
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Errorf("objective = %v (status %v), want 5", sol.Objective, sol.Status)
	}
}

func TestFacilityLocation(t *testing.T) {
	// The structural core of the CarbonEdge MILP: assignment variables
	// coupled to open/close binaries with capacity. 2 facilities (open
	// cost 10 and 1), 3 unit-demand clients, capacity 3 each, assignment
	// costs equal => optimum opens only the cheap facility: 1 + 3*1 = 4.
	// Vars: x[c][f] = c*2+f (6), y[f] = 6+f.
	p := NewProblem(8)
	openCost := []float64{10, 1}
	for f := 0; f < 2; f++ {
		_ = p.SetObjective(6+f, openCost[f])
		_ = p.SetBinary(6 + f)
	}
	for c := 0; c < 3; c++ {
		rowC := map[int]float64{}
		for f := 0; f < 2; f++ {
			idx := c*2 + f
			_ = p.SetObjective(idx, 1)
			_ = p.SetBinary(idx)
			rowC[idx] = 1
		}
		_ = p.AddConstraint(rowC, lp.EQ, 1)
	}
	for f := 0; f < 2; f++ {
		capC := map[int]float64{6 + f: -3}
		for c := 0; c < 3; c++ {
			capC[c*2+f] = 1
		}
		_ = p.AddConstraint(capC, lp.LE, 0)
	}
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Errorf("objective = %v (status %v), want 4", sol.Objective, sol.Status)
	}
	if math.Round(sol.X[6]) != 0 || math.Round(sol.X[7]) != 1 {
		t.Errorf("y = [%v %v], want [0 1]", sol.X[6], sol.X[7])
	}
}

func TestNodeLimit(t *testing.T) {
	// A big knapsack with 1-node limit can only return Limit or
	// Feasible, never claim optimality it didn't prove... unless the
	// root relaxation happens to be integral. Build one with a
	// fractional root.
	p := NewProblem(10)
	rng := rand.New(rand.NewSource(3))
	w := map[int]float64{}
	for i := 0; i < 10; i++ {
		_ = p.SetObjective(i, -(1 + rng.Float64()))
		_ = p.SetBinary(i)
		w[i] = 1 + rng.Float64()
	}
	_ = p.AddConstraint(w, lp.LE, 3.7)
	sol, err := p.Solve(Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Errorf("1-node solve claimed optimality")
	}
	if sol.Nodes > 1 {
		t.Errorf("explored %d nodes with MaxNodes=1", sol.Nodes)
	}
}

func TestBoundTracksIncumbent(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 1)
	_ = p.AddConstraint(map[int]float64{0: 1, 1: 1}, lp.GE, 2)
	_ = p.SetInteger(0)
	_ = p.SetInteger(1)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Bound > sol.Objective+1e-9 {
		t.Errorf("bound %v exceeds objective %v", sol.Bound, sol.Objective)
	}
}

func TestGapTermination(t *testing.T) {
	// With a huge allowed gap the solver should stop at first incumbent.
	p := NewProblem(12)
	rng := rand.New(rand.NewSource(11))
	w := map[int]float64{}
	for i := 0; i < 12; i++ {
		_ = p.SetObjective(i, -(1 + rng.Float64()))
		_ = p.SetBinary(i)
		w[i] = 1 + rng.Float64()
	}
	_ = p.AddConstraint(w, lp.LE, 5.1)
	full, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	gappy, err := p.Solve(Options{Gap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if gappy.Nodes > full.Nodes {
		t.Errorf("gap solve used %d nodes, full solve %d", gappy.Nodes, full.Nodes)
	}
	if gappy.Status != Optimal && gappy.Status != Feasible {
		t.Errorf("gap status = %v", gappy.Status)
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective(5, 1); err == nil {
		t.Error("bad objective index accepted")
	}
	if err := p.AddConstraint(map[int]float64{5: 1}, lp.LE, 0); err == nil {
		t.Error("bad constraint index accepted")
	}
	if err := p.SetInteger(-1); err == nil {
		t.Error("bad integer index accepted")
	}
	if err := p.SetUpper(9, 1); err == nil {
		t.Error("bad upper index accepted")
	}
}

func TestRandomMILPsMatchBruteForce(t *testing.T) {
	// Property: small random binary knapsacks match exhaustive search.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		vals := make([]float64, n)
		weights := make([]float64, n)
		p := NewProblem(n)
		w := map[int]float64{}
		for i := 0; i < n; i++ {
			vals[i] = 1 + rng.Float64()*9
			weights[i] = 1 + rng.Float64()*4
			_ = p.SetObjective(i, -vals[i])
			_ = p.SetBinary(i)
			w[i] = weights[i]
		}
		capy := 2 + rng.Float64()*6
		_ = p.AddConstraint(w, lp.LE, capy)
		sol, err := p.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			var v, wt float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += vals[i]
					wt += weights[i]
				}
			}
			if wt <= capy && v > best {
				best = v
			}
		}
		if math.Abs(-sol.Objective-best) > 1e-6 {
			t.Errorf("trial %d: mip = %v, brute force = %v", trial, -sol.Objective, best)
		}
	}
}

func TestDiveSeedsIncumbentOnPlateau(t *testing.T) {
	// Assignment with many identical-cost alternatives (a plateau of
	// alternate optima): without incumbent seeding, best-first search
	// explodes. Must solve quickly and exactly.
	nApps, nSrv := 6, 8
	p := NewProblem(nApps*nSrv + nSrv)
	yBase := nApps * nSrv
	for i := 0; i < nApps; i++ {
		row := map[int]float64{}
		for j := 0; j < nSrv; j++ {
			idx := i*nSrv + j
			// Two cheapest servers tie exactly.
			cost := 1.0
			if j < 2 {
				cost = 0.1
			}
			_ = p.SetObjective(idx, cost)
			_ = p.SetBinary(idx)
			row[idx] = 1
		}
		_ = p.AddConstraint(row, lp.EQ, 1)
	}
	for j := 0; j < nSrv; j++ {
		capRow := map[int]float64{yBase + j: -4}
		for i := 0; i < nApps; i++ {
			capRow[i*nSrv+j] = 1
		}
		_ = p.AddConstraint(capRow, lp.LE, 0)
		_ = p.SetBinary(yBase + j)
	}
	sol, err := p.Solve(Options{MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal && sol.Status != Feasible {
		t.Fatalf("status = %v", sol.Status)
	}
	// 6 apps on the two tied cheap servers (capacity 4 each): 6*0.1.
	if math.Abs(sol.Objective-0.6) > 1e-6 {
		t.Errorf("objective = %v, want 0.6", sol.Objective)
	}
}

// knapsackProblem is the TestKnapsack instance: optimum -20 at [0 1 1].
func knapsackProblem() *Problem {
	p := NewProblem(3)
	_ = p.SetObjective(0, -10)
	_ = p.SetObjective(1, -13)
	_ = p.SetObjective(2, -7)
	_ = p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
	for i := 0; i < 3; i++ {
		_ = p.SetBinary(i)
	}
	return p
}

func TestIncumbentWarmStartKeepsOptimum(t *testing.T) {
	// Warm-starting with a feasible (suboptimal) point must not change
	// the proven optimum.
	p := knapsackProblem()
	sol, err := p.Solve(Options{Incumbent: []float64{1, 0, 1}}) // obj -17
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Fatalf("warm solve = %+v, want optimal -20", sol)
	}
	// Warm-starting with the optimum itself also works.
	sol, err = p.Solve(Options{Incumbent: []float64{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Fatalf("optimal warm solve = %+v, want optimal -20", sol)
	}
}

func TestIncumbentInvalidIgnored(t *testing.T) {
	p := knapsackProblem()
	for name, bad := range map[string][]float64{
		"wrong-arity":       {1, 0},
		"constraint-broken": {1, 1, 1}, // weight 9 > 6
		"fractional":        {0.5, 0.5, 0},
		"out-of-bounds":     {2, 0, 0},
		"negative":          {-1, 1, 1},
	} {
		sol, err := p.Solve(Options{Incumbent: bad})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-(-20)) > 1e-6 {
			t.Fatalf("%s: invalid incumbent changed the solve: %+v", name, sol)
		}
	}
}

func TestIncumbentPrunesSearch(t *testing.T) {
	// With the optimal incumbent supplied up front the search should
	// explore no more nodes than the cold solve (pruning starts at the
	// root instead of after the dive).
	p := knapsackProblem()
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Solve(Options{Incumbent: []float64{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Nodes > cold.Nodes {
		t.Errorf("warm start explored %d nodes, cold %d", warm.Nodes, cold.Nodes)
	}
}

// TestIncumbentRowSumOrdered: validIncumbent sums each row in ascending
// variable order, so a point on a row whose float sum depends on the
// order is judged the same way on every call.
func TestIncumbentRowSumOrdered(t *testing.T) {
	p := NewProblem(3)
	for i := 0; i < 3; i++ {
		if err := p.SetBinary(i); err != nil {
			t.Fatal(err)
		}
	}
	// In ascending order 1e17 + 1 rounds back to 1e17 and the row sums
	// to 0; taken as 1e17 - 1e17 + 1 it sums to 1 and fails the EQ row.
	if err := p.AddConstraint(map[int]float64{0: 1e17, 1: 1, 2: -1e17}, lp.EQ, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if _, _, ok := p.validIncumbent([]float64{1, 1, 1}); !ok {
			t.Fatalf("call %d rejected the point: the row was not summed in ascending order", k)
		}
	}
}
