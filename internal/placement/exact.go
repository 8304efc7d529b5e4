package placement

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/lp"
	"repro/internal/mip"
)

// ExactSolver solves the placement MILP (Eq. 7) to optimality with the
// branch-and-bound solver, mirroring the paper's OR-Tools backend; the
// Placer sends it batches of up to ExactPairLimit feasible pairs.
//
// The MILP is over the batch's classes (the view's class stamp, see
// Problem): one integer per (class, server) counts the class's apps there,
// so alike apps cost branch and bound nothing, where one binary per (app,
// server) let every branch only move a fractional split from one alike
// app to another. Every policy solves in the view's classes. The search
// is bounded by a node budget, not a clock: a solve that spends it
// returns its incumbent, or errors without one, depending on the batch
// alone and not on the host's speed.
//
// Before building the MILP it tries a certificate (see certify): the
// argmin assignment, returned only when it is provably the MILP's unique
// optimum, which the MILP would return too — ServerOf, PowerOn and
// Unplaced — at any Gap. A batch the bound settles never reaches mip.
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

// exactNodeBudget is NewExactSolver's branch-and-bound node budget.
const exactNodeBudget = 256

// NewExactSolver returns an exact solver with a small optimality gap
// appropriate for placement (costs are physical quantities; 0.1% is far
// below trace noise) and a budget of 256 branch-and-bound nodes
// (exactNodeBudget). The slowest budget-exhausting solve the tests build
// at ExactPairLimit pairs is TestExactNodeBudget's (44 apps in 8 classes
// on 5 servers, 40 class pairs): about 0.1 s on a 2-vCPU x86-64 host. A
// node costs more as the model holds more (class, server) pairs: the
// budget bounds the count of nodes, not their time.
func NewExactSolver() *ExactSolver {
	return &ExactSolver{Options: mip.Options{Gap: 0.001, MaxNodes: exactNodeBudget}}
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
		for _, j := range p.Candidates[i] {
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

// milp is the batch's MILP over its classes (Problem.classOf): an
// integer x_cj in [0, n_c] per feasible (class, server) pair counts class
// c's apps on server j, priced and sized by the class representative's
// cells. A batch of singleton classes builds the per-app binary model,
// variable for variable and row for row. Class c's pairs are at
// [first[c], first[c+1]), servers ascending; y_j follows them all.
type milp struct {
	prob            *mip.Problem
	cls, rep        []int32
	pairs           []pair
	pairIdx         map[pair]int
	first, unplaced []int
}

type pair struct{ c, j int }

// buildMILP lays out the batch's MILP under the policy; unplaced lists the
// apps of classes with no feasible server.
func buildMILP(p *Problem, pol Policy) (*milp, error) {
	m := len(p.Servers)
	cls, rep := p.classOf, p.classRep
	size := make([]float64, len(rep))
	for _, c := range cls {
		size[c]++
	}

	var pairs []pair
	pairIdx := make(map[pair]int)
	first := make([]int, len(rep)+1)
	for c, r := range rep {
		first[c] = len(pairs)
		for _, j := range p.FeasibleServers(int(r)) {
			pairIdx[pair{c, j}] = len(pairs)
			pairs = append(pairs, pair{c, j})
		}
	}
	first[len(rep)] = len(pairs)
	yBase := len(pairs)
	prob := mip.NewProblem(yBase + m)
	var err error // the first model-building error; indices are in range by construction
	check := func(e error) {
		if err == nil {
			err = e
		}
	}

	// Objective: pair costs + activation costs for newly-on servers.
	// The (y_j - y_curr_j) term contributes a constant -y_curr_j *
	// activation for already-on servers, which we drop (y_j = 1 is
	// forced for them anyway).
	for k, pr := range pairs {
		check(prob.SetObjective(k, pol.PairCost(p, int(rep[pr.c]), pr.j)))
		check(prob.SetInteger(k))
		check(prob.SetUpper(k, size[pr.c]))
	}
	for j := 0; j < m; j++ {
		cost := 0.0
		if !p.Servers[j].PoweredOn {
			cost = pol.ActivationCost(p, j)
		}
		check(prob.SetObjective(yBase+j, cost))
		check(prob.SetBinary(yBase + j))
	}

	// Eq. 3: each class's apps placed exactly once (over feasible pairs).
	// A class with no feasible server would make the whole batch
	// infeasible under Eq. 3; we instead drop its apps and report them
	// unplaced, matching Algorithm 1's filtering behaviour.
	var unplaced []int
	for i, c := range cls {
		if first[c] == first[c+1] {
			unplaced = append(unplaced, i)
		}
	}
	for c := range rep {
		if first[c] < first[c+1] {
			row := map[int]float64{}
			for k := first[c]; k < first[c+1]; k++ {
				row[k] = 1
			}
			check(prob.AddConstraint(row, lp.EQ, size[c]))
		}
	}

	// Eq. 1 with Eq. 5 folded in: sum_c x_cj * R_k(rep_c)j <= C_kj * y_j.
	for j := 0; j < m; j++ {
		for _, k := range cluster.ResourceKinds() {
			row := map[int]float64{}
			for c, r := range rep {
				if idx, ok := pairIdx[pair{c, j}]; ok && p.Demand[r][j][k] > 0 {
					row[idx] = p.Demand[r][j][k]
				}
			}
			if len(row) > 0 {
				row[yBase+j] = -p.Servers[j].Free[k]
				check(prob.AddConstraint(row, lp.LE, 0))
			}
		}
		// Tie x to y even when demand rows were all-zero in tracked
		// dimensions: x_cj <= n_c * y_j.
		for c := range rep {
			if idx, ok := pairIdx[pair{c, j}]; ok {
				check(prob.AddConstraint(map[int]float64{idx: 1, yBase + j: -size[c]}, lp.LE, 0))
			}
		}
	}

	// Eq. 4: already-on servers stay on.
	for j := 0; j < m; j++ {
		if p.Servers[j].PoweredOn {
			check(prob.AddConstraint(map[int]float64{yBase + j: 1}, lp.GE, 1))
		}
	}
	if err != nil {
		return nil, err
	}
	return &milp{prob, cls, rep, pairs, pairIdx, first, unplaced}, nil
}

// solveMILP builds and solves the MILP, returning the assignment and the
// branch-and-bound nodes explored; a non-nil warm seeds the incumbent (see
// SolveInto). The certificate's tests reach it directly as their oracle.
func (s *ExactSolver) solveMILP(p *Problem, pol Policy, warm *Assignment) (*Assignment, int, error) {
	n, m := len(p.Apps), len(p.Servers)
	md, err := buildMILP(p, pol)
	if err != nil {
		return nil, 0, err
	}
	cls, pairIdx, first, yBase := md.cls, md.pairIdx, md.first, len(md.pairs)
	opts := s.Options
	if warm != nil && len(warm.ServerOf) == len(p.Apps) {
		// Translate the warm assignment into a variable vector: x_cj
		// counts the class's apps on each still-feasible pair, y_j = 1
		// for hosting or already-on servers. mip validates the point and
		// discards it if any constraint (e.g. Eq. 3 for an app whose pair
		// vanished) fails.
		x := make([]float64, yBase+m)
		for i, j := range warm.ServerOf {
			if idx, ok := pairIdx[pair{int(cls[i]), j}]; j >= 0 && ok {
				x[idx]++
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
	sol, err := md.prob.Solve(opts)
	if err != nil {
		return nil, 0, err
	}
	switch sol.Status {
	case mip.Optimal, mip.Feasible:
	case mip.Infeasible:
		return nil, 0, fmt.Errorf("placement: exact solver found instance infeasible")
	default:
		return nil, 0, fmt.Errorf("placement: exact solver stopped without an incumbent (%v)", sol.Status)
	}

	// Disaggregate: each class's apps, in index order, fill its servers
	// in ascending order, round(x_cj) apps per server.
	a := &Assignment{ServerOf: make([]int, n), PowerOn: make([]bool, m), Unplaced: md.unplaced}
	next, left := append([]int(nil), first[:len(md.rep)]...), make([]int, len(md.rep))
	for i, c := range cls {
		a.ServerOf[i] = -1
		for left[c] == 0 && next[c] < first[c+1] {
			left[c] = int(math.Round(sol.X[next[c]]))
			next[c]++
		}
		if left[c] > 0 {
			a.ServerOf[i] = md.pairs[next[c]-1].j
			left[c]--
		}
	}
	for j := 0; j < m; j++ {
		a.PowerOn[j] = math.Round(sol.X[yBase+j]) == 1 || p.Servers[j].PoweredOn
	}
	return a, sol.Nodes, nil
}
