package placement

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/lp"
	"repro/internal/mip"
)

// ExactSolver solves the placement MILP (Eq. 7) to optimality with the
// branch-and-bound solver, mirroring the paper's OR-Tools backend. It is
// intended for instances up to a few thousand (app, server) pairs; the
// placement service routes larger batches to the heuristic backend.
//
// Before building the MILP it tries a certificate (see certify): every
// app on its cheapest feasible server, returned only when that argmin
// assignment is provably the MILP's unique optimum. The LP relaxation's
// optimum is then unique and integral, so the root dive lands on it and
// branch and bound proves it: the MILP would return exactly this
// assignment — ServerOf, PowerOn and Unplaced — at any Gap. A batch the
// bound settles never reaches package mip; every other batch is solved
// as before.
//
// An ExactSolver is safe for concurrent use.
type ExactSolver struct {
	// Options tune the underlying MILP search.
	Options mip.Options
	// SkipValidate skips the per-solve structural validation of the
	// problem; set it only for trusted problem sources that already
	// validated at their boundary (Placer does).
	SkipValidate bool

	// nodes, when non-nil, receives the branch-and-bound nodes each
	// successful solve explored: 0 when the certificate closed the batch.
	// Only the Placer sets it, on a solver of its own for one batch, and
	// reports it as Result.BnBNodes; a solver without it writes nothing.
	nodes *int
}

// NewExactSolver returns an exact solver with a 30s default time limit and
// a small optimality gap appropriate for placement (costs are physical
// quantities; 0.1% is far below trace noise).
func NewExactSolver() *ExactSolver {
	return &ExactSolver{Options: mip.Options{TimeLimit: 30 * time.Second, Gap: 0.001}}
}

// Solve returns the MILP's optimum for the problem under the policy.
func (s *ExactSolver) Solve(p *Problem, pol Policy) (*Assignment, error) {
	return solveNew(s, p, pol, nil)
}

// SolveInto writes the MILP's optimum for the problem under the policy
// into dst. A non-nil warm is a warm start: the previous assignment is
// translated into an integer point and handed to branch and bound as its
// initial incumbent, so bound pruning starts immediately instead of after
// the root dive. The optimum is unchanged; only the search gets cheaper.
// An incumbent that is no longer feasible under the current problem is
// validated away and the solve proceeds cold. Only warm.ServerOf is read;
// power states are re-derived. A warm start cannot change a certified
// answer either: under the certificate's conditions every other integer
// point costs more, so a warm incumbent is either this assignment or
// beaten by the root relaxation. On error dst is left unchanged.
func (s *ExactSolver) SolveInto(dst *Assignment, p *Problem, pol Policy, warm *Assignment) error {
	if !s.SkipValidate {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	a, nodes := certify(p, pol), 0
	if a == nil {
		var err error
		if a, nodes, err = s.solveMILP(p, pol, warm); err != nil {
			return err
		}
	}
	if s.nodes != nil {
		*s.nodes = nodes
	}
	*dst = *a
	return nil
}

// certify returns the argmin assignment — each app on its cheapest
// feasible server, apps with none dropped as Eq. 3 drops them — when it
// is provably the MILP's unique optimum, and nil otherwise. It is when:
//
//   - every placed app's cheapest server beats its runner-up by
//     1e-6·max(1,|best|), far wider than the simplex's 1e-9 reduced-cost
//     test, so the LP cannot stop on the other vertex;
//   - per server and dimension, the summed positive demand fits Free
//     exactly, with no tolerance: the MILP's capacity rows skip entries
//     ≤ 0, and every hosting server is already on, so the row's bound is
//     Free itself;
//   - no app's cheapest server is off, and every off server has
//     ActivationCost > 0, so y_j = 0 is forced for each of them.
//
// The LP bound Σ_i min_j PairCost(i,j) is then attained by this point
// alone. A non-finite cost declines (the MILP's objective would carry
// it), and so does a problem with no servers: the MILP then has no
// variables and errors.
func certify(p *Problem, pol Policy) *Assignment {
	n, m := len(p.Apps), len(p.Servers)
	if m == 0 {
		return nil
	}
	for j := range p.Servers {
		if !p.Servers[j].PoweredOn && !(pol.ActivationCost(p, j) > 0) {
			return nil
		}
	}
	a := &Assignment{ServerOf: make([]int, n), PowerOn: make([]bool, m)}
	used := make([]cluster.Resources, m)
	for i := 0; i < n; i++ {
		best, bestCost, runnerUp := -1, math.Inf(1), math.Inf(1)
		for _, j := range p.CandidatesOf(i) {
			if !p.Feasible(i, j) {
				continue
			}
			c := pol.PairCost(p, i, j)
			switch {
			case math.IsNaN(c) || math.IsInf(c, 0):
				return nil
			case c < bestCost:
				best, bestCost, runnerUp = j, c, bestCost
			case c < runnerUp:
				runnerUp = c
			}
		}
		a.ServerOf[i] = best
		if best < 0 {
			a.Unplaced = append(a.Unplaced, i)
			continue
		}
		if !p.Servers[best].PoweredOn || !(runnerUp-bestCost > 1e-6*math.Max(1, math.Abs(bestCost))) {
			return nil
		}
		for k, d := range p.Demand[i][best] {
			if d > 0 {
				used[best][k] += d
			}
		}
	}
	for j := range p.Servers {
		if !p.Servers[j].PoweredOn {
			continue
		}
		for k, u := range used[j] {
			if !(u <= p.Servers[j].Free[k]) {
				return nil
			}
		}
		a.PowerOn[j] = true
	}
	return a
}

// solveMILP builds and solves the MILP, returning the assignment and the
// branch-and-bound nodes explored; a non-nil warm seeds the incumbent (see
// SolveInto). The certificate's tests reach it directly as their oracle.
func (s *ExactSolver) solveMILP(p *Problem, pol Policy, warm *Assignment) (*Assignment, int, error) {
	n, m := len(p.Apps), len(p.Servers)

	// Variable layout: feasible x_ij pairs first, then y_j.
	type pair struct{ i, j int }
	var pairs []pair
	pairIdx := make(map[pair]int)
	feasibleOf := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, j := range p.FeasibleServers(i) {
			pairIdx[pair{i, j}] = len(pairs)
			pairs = append(pairs, pair{i, j})
			feasibleOf[i] = append(feasibleOf[i], j)
		}
	}
	yBase := len(pairs)
	prob := mip.NewProblem(yBase + m)

	// Objective: pair costs + activation costs for newly-on servers.
	// The (y_j - y_curr_j) term contributes a constant -y_curr_j *
	// activation for already-on servers, which we drop (y_j = 1 is
	// forced for them anyway).
	for k, pr := range pairs {
		if err := prob.SetObjective(k, pol.PairCost(p, pr.i, pr.j)); err != nil {
			return nil, 0, err
		}
		if err := prob.SetBinary(k); err != nil {
			return nil, 0, err
		}
	}
	for j := 0; j < m; j++ {
		cost := 0.0
		if !p.Servers[j].PoweredOn {
			cost = pol.ActivationCost(p, j)
		}
		if err := prob.SetObjective(yBase+j, cost); err != nil {
			return nil, 0, err
		}
		if err := prob.SetBinary(yBase + j); err != nil {
			return nil, 0, err
		}
	}

	// Eq. 3: each app placed exactly once (over feasible pairs). Apps
	// with no feasible server make the whole batch infeasible under
	// Eq. 3; we instead drop them and report them unplaced, matching
	// Algorithm 1's filtering behaviour.
	var unplaced []int
	for i := 0; i < n; i++ {
		if len(feasibleOf[i]) == 0 {
			unplaced = append(unplaced, i)
			continue
		}
		row := map[int]float64{}
		for _, j := range feasibleOf[i] {
			row[pairIdx[pair{i, j}]] = 1
		}
		if err := prob.AddConstraint(row, lp.EQ, 1); err != nil {
			return nil, 0, err
		}
	}

	// Eq. 1 with Eq. 5 folded in: sum_i x_ij * R_kij <= C_kj * y_j.
	for j := 0; j < m; j++ {
		for _, k := range cluster.ResourceKinds() {
			row := map[int]float64{}
			any := false
			for i := 0; i < n; i++ {
				if idx, ok := pairIdx[pair{i, j}]; ok && p.Demand[i][j][k] > 0 {
					row[idx] = p.Demand[i][j][k]
					any = true
				}
			}
			if !any {
				continue
			}
			row[yBase+j] = -p.Servers[j].Free[k]
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				return nil, 0, err
			}
		}
		// Tie x to y even when demand rows were all-zero in tracked
		// dimensions: x_ij <= y_j.
		for i := 0; i < n; i++ {
			if idx, ok := pairIdx[pair{i, j}]; ok {
				if err := prob.AddConstraint(map[int]float64{idx: 1, yBase + j: -1}, lp.LE, 0); err != nil {
					return nil, 0, err
				}
			}
		}
	}

	// Eq. 4: already-on servers stay on.
	for j := 0; j < m; j++ {
		if p.Servers[j].PoweredOn {
			if err := prob.AddConstraint(map[int]float64{yBase + j: 1}, lp.GE, 1); err != nil {
				return nil, 0, err
			}
		}
	}

	opts := s.Options
	if warm != nil && len(warm.ServerOf) == len(p.Apps) {
		// Translate the warm assignment into a variable vector: x_ij = 1
		// for each still-feasible pair, y_j = 1 for hosting or already-on
		// servers. mip validates the point and discards it if any
		// constraint (e.g. Eq. 3 for an app whose pair vanished) fails.
		x := make([]float64, yBase+m)
		for i, j := range warm.ServerOf {
			if idx, ok := pairIdx[pair{i, j}]; j >= 0 && ok {
				x[idx] = 1
				x[yBase+j] = 1
			}
		}
		for j := 0; j < m; j++ {
			if p.Servers[j].PoweredOn {
				x[yBase+j] = 1
			}
		}
		opts.Incumbent = x
	}
	sol, err := prob.Solve(opts)
	if err != nil {
		return nil, 0, err
	}
	switch sol.Status {
	case mip.Optimal, mip.Feasible:
	case mip.Infeasible:
		return nil, 0, fmt.Errorf("placement: exact solver found instance infeasible")
	default:
		return nil, 0, fmt.Errorf("placement: exact solver hit limit without incumbent (%v)", sol.Status)
	}

	a := &Assignment{
		ServerOf: make([]int, n),
		PowerOn:  make([]bool, m),
		Unplaced: unplaced,
	}
	for i := range a.ServerOf {
		a.ServerOf[i] = -1
	}
	for k, pr := range pairs {
		if math.Round(sol.X[k]) == 1 {
			a.ServerOf[pr.i] = pr.j
		}
	}
	for j := 0; j < m; j++ {
		a.PowerOn[j] = math.Round(sol.X[yBase+j]) == 1 || p.Servers[j].PoweredOn
	}
	return a, sol.Nodes, nil
}
