package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSimpleMaximization(t *testing.T) {
	// maximize 3x + 2y s.t. x+y <= 4, x+3y <= 6  => x=4, y=0, obj 12.
	p := NewProblem(2)
	_ = p.SetObjective(0, -3)
	_ = p.SetObjective(1, -2)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, LE, 4)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 3}, LE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-12)) > 1e-6 {
		t.Errorf("objective = %v, want -12", sol.Objective)
	}
	if math.Abs(sol.X[0]-4) > 1e-6 || math.Abs(sol.X[1]) > 1e-6 {
		t.Errorf("x = %v, want [4 0]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// minimize x+2y s.t. x+y = 3, x <= 2  => x=2, y=1, obj 4.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 2)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, EQ, 3)
	_ = addConstraint(p, map[int]float64{0: 1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// minimize 2x + y s.t. x + y >= 5, x >= 1  => x=1, y=4, obj 6.
	p := NewProblem(2)
	_ = p.SetObjective(0, 2)
	_ = p.SetObjective(1, 1)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, GE, 5)
	_ = addConstraint(p, map[int]float64{0: 1}, GE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-6) > 1e-6 {
		t.Errorf("objective = %v, want 6", sol.Objective)
	}
	if math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]-4) > 1e-6 {
		t.Errorf("x = %v, want [1 4]", sol.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// minimize x s.t. -x <= -3 (i.e. x >= 3).
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = addConstraint(p, map[int]float64{0: -1}, LE, -3)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-3) > 1e-6 {
		t.Errorf("x = %v, want 3", sol.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = addConstraint(p, map[int]float64{0: 1}, LE, 1)
	_ = addConstraint(p, map[int]float64{0: 1}, GE, 2)
	sol, err := p.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// minimize -x with only x >= 0: unbounded below.
	p := NewProblem(1)
	_ = p.SetObjective(0, -1)
	sol, err := p.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	p := NewProblem(3)
	_ = p.SetObjective(0, -0.75)
	_ = p.SetObjective(1, 150)
	_ = p.SetObjective(2, -0.02)
	_ = addConstraint(p, map[int]float64{0: 0.25, 1: -60, 2: -0.04}, LE, 0)
	_ = addConstraint(p, map[int]float64{0: 0.5, 1: -90, 2: -0.02}, LE, 0)
	_ = addConstraint(p, map[int]float64{2: 1}, LE, 1)
	sol, err := p.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v (cycling?)", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-4 {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y = 2 stated twice; must not break phase 1.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, EQ, 2)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, EQ, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]+sol.X[1]-2) > 1e-6 {
		t.Errorf("x = %v, want sum 2", sol.X)
	}
	if math.Abs(sol.Objective) > 1e-6 {
		t.Errorf("objective = %v, want 0 (x=0)", sol.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(2)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 2}, EQ, 4)
	sol := solveOK(t, p)
	if v := sol.X[0] + 2*sol.X[1]; math.Abs(v-4) > 1e-6 {
		t.Errorf("constraint violated: %v", v)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies x 3 demands; known optimum. Variables x[s][d] flattened.
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	cost := [][]float64{{2, 3, 1}, {5, 4, 8}}
	p := NewProblem(6)
	for s := 0; s < 2; s++ {
		for d := 0; d < 3; d++ {
			_ = p.SetObjective(s*3+d, cost[s][d])
		}
	}
	for s := 0; s < 2; s++ {
		row := map[int]float64{}
		for d := 0; d < 3; d++ {
			row[s*3+d] = 1
		}
		_ = addConstraint(p, row, LE, supply[s])
	}
	for d := 0; d < 3; d++ {
		row := map[int]float64{}
		for s := 0; s < 2; s++ {
			row[s*3+d] = 1
		}
		_ = addConstraint(p, row, EQ, demand[d])
	}
	sol := solveOK(t, p)
	// Optimal: s0 ships 10 to d0? cost: s0->d2 (1) 15 units, s0->d0 (2)
	// 5, s1->d0 (5) 5, s1->d1 (4) 25 => 15+10+25+100=150. Alternative:
	// s0->d0 10(20), s0->d2 15(15)... supply s0=20 only: 10+15=25>20.
	// LP optimum = 145: s0: d0 5, d2 15 (cost 10+15=25); s1: d0 5, d1 25
	// (25+100=125). Total 150? Let solver tell; assert against brute
	// force instead.
	want := bruteForceTransport(supply, demand, cost)
	if math.Abs(sol.Objective-want) > 1e-4 {
		t.Errorf("objective = %v, brute force = %v", sol.Objective, want)
	}
}

// bruteForceTransport grids over feasible integer shipments to approximate
// the optimum (demands are integers and costs linear, so an integral
// optimum exists by total unimodularity).
func bruteForceTransport(supply, demand []float64, cost [][]float64) float64 {
	best := math.Inf(1)
	// x[0][d] determines x[1][d] = demand[d] - x[0][d].
	for a := 0.0; a <= demand[0]; a++ {
		for b := 0.0; b <= demand[1]; b++ {
			for c := 0.0; c <= demand[2]; c++ {
				if a+b+c > supply[0] {
					continue
				}
				r0, r1, r2 := demand[0]-a, demand[1]-b, demand[2]-c
				if r0+r1+r2 > supply[1] {
					continue
				}
				v := a*cost[0][0] + b*cost[0][1] + c*cost[0][2] +
					r0*cost[1][0] + r1*cost[1][1] + r2*cost[1][2]
				if v < best {
					best = v
				}
			}
		}
	}
	return best
}

func TestRandomLPsSatisfyConstraints(t *testing.T) {
	// Property: on random feasible LPs, returned solutions satisfy every
	// constraint and are non-negative.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			_ = p.SetObjective(j, rng.Float64()*10-2)
		}
		for i := 0; i < m; i++ {
			row := map[int]float64{}
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					row[j] = rng.Float64() * 5
				}
			}
			// Nonneg coefficients with <= keeps the problem feasible
			// (x=0) and bounded below only if objective >= 0; also add
			// a box to bound it.
			_ = addConstraint(p, row, LE, 1+rng.Float64()*10)
		}
		for j := 0; j < n; j++ {
			_ = addConstraint(p, map[int]float64{j: 1}, LE, 10)
		}
		sol, err := p.Solve(0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		for j, v := range sol.X {
			if v < -1e-6 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, v)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective(5, 1); err == nil {
		t.Error("out-of-range objective accepted")
	}
	if err := addConstraint(p, map[int]float64{5: 1}, LE, 0); err == nil {
		t.Error("out-of-range constraint accepted")
	}
	empty := NewProblem(0)
	if _, err := empty.Solve(0); err == nil {
		t.Error("zero-variable problem accepted")
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem(3)
	_ = p.SetObjective(0, -1)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1, 2: 1}, LE, 10)
	sol, err := p.Solve(1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Errorf("status = %v", sol.Status)
	}
}

func TestMixedScaleCoefficients(t *testing.T) {
	// Regression: rows mixing O(1) and O(1e6)+ coefficients used to
	// defeat the solver's absolute tolerances and return a wrong
	// "optimal" vertex. Row equilibration must keep this exact.
	// minimize x0 + 10 x1 s.t. x0 + x1 = 1, 1e6*x0 <= 2e6 (slack),
	// x0 <= 1, x1 <= 1 => x0 = 1, obj 1.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 10)
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, EQ, 1)
	_ = addConstraint(p, map[int]float64{0: 1e6}, LE, 2e6)
	_ = addConstraint(p, map[int]float64{0: 1}, LE, 1)
	_ = addConstraint(p, map[int]float64{1: 1}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

func TestMixedScaleAssignmentRegression(t *testing.T) {
	// Regression for the placement-shaped failure: assignment structure
	// with a huge-coefficient capacity row appended AFTER the equality
	// rows. Two "apps" (a,b), two "servers"; costs prefer server 1.
	// Vars: x_a0 x_a1 x_b0 x_b1, y0 y1.
	p := NewProblem(6)
	costs := []float64{5, 0.1, 7, 0.2, 0, 0}
	for i, c := range costs {
		_ = p.SetObjective(i, c)
	}
	_ = addConstraint(p, map[int]float64{0: 1, 1: 1}, EQ, 1)
	_ = addConstraint(p, map[int]float64{2: 1, 3: 1}, EQ, 1)
	// Capacity rows with 1e9 coefficients on y (ample capacity).
	_ = addConstraint(p, map[int]float64{0: 100, 2: 100, 4: -1e9}, LE, 0)
	_ = addConstraint(p, map[int]float64{1: 100, 3: 100, 5: -1e9}, LE, 0)
	for i := 0; i < 6; i++ {
		_ = addConstraint(p, map[int]float64{i: 1}, LE, 1)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-0.3) > 1e-6 {
		t.Errorf("objective = %v, want 0.3 (both apps on cheap server)", sol.Objective)
	}
}

func TestDegenerateStallTerminates(t *testing.T) {
	// Many redundant zero-RHS rows force long degenerate pivot chains;
	// the Dantzig-with-Bland-fallback pricing must still terminate at
	// the optimum quickly.
	n := 12
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		_ = p.SetObjective(j, float64(j+1))
	}
	total := map[int]float64{}
	for j := 0; j < n; j++ {
		total[j] = 1
	}
	_ = addConstraint(p, total, GE, 3)
	// Redundant degenerate structure: x_j - x_{j+1} <= 0 chains plus
	// duplicates.
	for j := 0; j+1 < n; j++ {
		_ = addConstraint(p, map[int]float64{j: 1, j + 1: -1}, LE, 0)
		_ = addConstraint(p, map[int]float64{j: 1, j + 1: -1}, LE, 0)
	}
	for j := 0; j < n; j++ {
		_ = addConstraint(p, map[int]float64{j: 1}, LE, 1)
	}
	sol, err := p.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v (stalled?)", sol.Status)
	}
	// With the chain x0<=x1<=...<=x11 and sum >= 3: cheapest is spread
	// equally x_j = 3/12 each? Chain forces non-decreasing; optimum
	// puts weight on cheap earlier vars but they are bounded by later
	// ones; uniform 0.25 is optimal: obj = 0.25 * sum(1..12) = 19.5.
	if math.Abs(sol.Objective-19.5) > 1e-4 {
		t.Errorf("objective = %v, want 19.5", sol.Objective)
	}
}

// addConstraint appends a constraint row over a copy of coeffs without
// its zero coefficients.
func addConstraint(p *Problem, coeffs map[int]float64, op Op, rhs float64) error {
	cp := make(map[int]float64, len(coeffs))
	for i, v := range coeffs {
		if v != 0 {
			cp[i] = v
		}
	}
	return p.AddConstraintShared(cp, op, rhs)
}
