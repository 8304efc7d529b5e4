// Package mip implements a branch-and-bound mixed-integer linear
// programming solver on top of the simplex solver in package lp. Together
// they substitute for the Google OR-Tools solver the paper's placement
// service uses (§5.1): the CarbonEdge placement problem (Eq. 7) is a pure
// MILP, so any exact solver reaches the same optimum.
//
// Design: best-first search on the LP-relaxation bound, branching on the
// most fractional integer variable, within a node budget. No clock is
// read: the answer is a function of the problem and the options alone.
// Variables declared integer are branched to integrality within the
// caller-supplied bounds (binary variables use [0,1]).
package mip

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
)

// Problem is a MILP under construction: a linear model plus integrality
// marks and upper bounds (all variables are non-negative; bounds become
// constraint rows in the relaxations).
type Problem struct {
	n       int
	obj     []float64
	rows    []row
	integer []bool
	upper   []float64
}

// row is one stored linear constraint.
type row struct {
	coeffs map[int]float64
	op     lp.Op
	rhs    float64
}

// NewProblem creates a MILP with n non-negative variables, all continuous
// and unbounded above by default.
func NewProblem(n int) *Problem {
	upper := make([]float64, n)
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	return &Problem{
		n:       n,
		obj:     make([]float64, n),
		integer: make([]bool, n),
		upper:   upper,
	}
}

// SetObjective sets the minimized objective coefficient for variable i.
func (p *Problem) SetObjective(i int, c float64) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("mip: objective index %d out of range", i)
	}
	p.obj[i] = c
	return nil
}

// AddConstraint appends a linear constraint.
func (p *Problem) AddConstraint(coeffs map[int]float64, op lp.Op, rhs float64) error {
	bad := 0 // counted, not returned at the first hit: map order must not pick the error
	for i := range coeffs {
		if i < 0 || i >= p.n {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("mip: %d constraint indices out of range [0,%d)", bad, p.n)
	}
	cp := make(map[int]float64, len(coeffs))
	for i, v := range coeffs {
		cp[i] = v
	}
	p.rows = append(p.rows, row{coeffs: cp, op: op, rhs: rhs})
	return nil
}

// SetInteger marks variable i as integral.
func (p *Problem) SetInteger(i int) error {
	if i < 0 || i >= len(p.integer) {
		return fmt.Errorf("mip: integer index %d out of range", i)
	}
	p.integer[i] = true
	return nil
}

// SetBinary marks variable i as integral with bounds [0,1].
func (p *Problem) SetBinary(i int) error {
	if err := p.SetInteger(i); err != nil {
		return err
	}
	return p.SetUpper(i, 1)
}

// SetUpper sets an upper bound for variable i.
func (p *Problem) SetUpper(i int, ub float64) error {
	if i < 0 || i >= len(p.upper) {
		return fmt.Errorf("mip: upper-bound index %d out of range", i)
	}
	p.upper[i] = ub
	return nil
}

// intTol is the integrality tolerance.
const intTol = 1e-5

// Options bound the search.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (0 = 100000).
	MaxNodes int
	// Gap terminates early when (incumbent-bound)/|incumbent| falls
	// below this relative gap (0 = prove optimality).
	Gap float64
	// Incumbent optionally warm-starts the search with a known
	// integer-feasible point, one entry per variable (e.g. a previous
	// epoch's solution). It is validated against every constraint, bound,
	// and integrality mark before use; an invalid point is silently
	// ignored and the solve proceeds cold. A valid incumbent gives branch
	// and bound an immediate upper bound, so pruning starts at the root.
	Incumbent []float64
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: incumbent proven optimal (within Gap).
	Optimal Status = iota
	// Feasible: search hit a limit with an incumbent in hand.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// Unbounded: the relaxation is unbounded.
	Unbounded
	// Limit: search hit a limit with no incumbent.
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "limit"
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Bound is the best proven lower bound on the optimum.
	Bound float64
}

// node is one branch-and-bound subproblem: extra variable bounds layered
// over the base problem.
type node struct {
	lower map[int]float64
	upper map[int]float64
	bound float64 // parent LP bound (lower bound on this subtree)
	depth int
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }

// Less orders nodes best-bound first, breaking ties by depth (deepest
// first). The depth tie-break is essential: placement instances often have
// plateaus of alternate optima (several servers with identical cost), and
// pure best-first degenerates into breadth-first search over the plateau,
// never reaching an integer incumbent. Diving on ties finds an incumbent
// after at most #binaries nodes, after which bound pruning takes over.
func (q nodeQueue) Less(i, j int) bool {
	const tie = 1e-7
	if q[i].bound < q[j].bound-tie {
		return true
	}
	if q[j].bound < q[i].bound-tie {
		return false
	}
	return q[i].depth > q[j].depth
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Solve runs branch and bound.
func (p *Problem) Solve(opt Options) (*Solution, error) {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 100000
	}

	root := &node{lower: map[int]float64{}, upper: map[int]float64{}, bound: math.Inf(-1)}
	queue := &nodeQueue{root}
	heap.Init(queue)

	rc, err := p.newRelaxation()
	if err != nil {
		return nil, err
	}

	var incumbent []float64
	incumbentObj := math.Inf(1)

	// Seed an incumbent with a diving heuristic: repeatedly fix the most
	// fractional variable to its nearest integer and re-solve. Without an
	// incumbent, best-first search cannot prune and degenerates on
	// instances with many alternate optima (placement problems routinely
	// have them: several servers with identical cost).
	// A caller-supplied warm incumbent replaces the dive: it provides the
	// same thing (an initial upper bound) without the dive's LP solves.
	if x, obj, ok := p.validIncumbent(opt.Incumbent); ok {
		incumbent, incumbentObj = x, obj
	} else if x, obj, ok := p.dive(rc); ok {
		incumbent, incumbentObj = x, obj
	}
	bestBound := math.Inf(-1)
	nodes := 0
	sawLimit := false

	for queue.Len() > 0 {
		if nodes >= opt.MaxNodes {
			sawLimit = true
			break
		}
		nd := heap.Pop(queue).(*node)
		if nd.bound >= incumbentObj-1e-12 {
			continue // pruned by bound
		}
		nodes++

		sol, err := rc.solve(nd)
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			if nodes == 1 {
				return &Solution{Status: Unbounded, Nodes: nodes}, nil
			}
			continue
		case lp.IterLimit:
			sawLimit = true
			continue
		}
		if sol.Objective >= incumbentObj-1e-12 {
			continue
		}

		// Clamp the relaxation solution into the node's variable
		// domains: simplex noise can leave a bounded variable at
		// 1e-5 past its bound, which would otherwise make the solver
		// re-branch on an already-fixed variable forever.
		x := clampToDomain(sol.X, p, nd)

		branch := p.mostFractional(x)
		if branch < 0 {
			// Integer feasible: new incumbent.
			if sol.Objective < incumbentObj {
				incumbentObj = sol.Objective
				incumbent = roundIntegers(x, p.integer)
			}
			continue
		}

		child := func() *node {
			return &node{lower: copyBounds(nd.lower), upper: copyBounds(nd.upper), bound: sol.Objective, depth: nd.depth + 1}
		}
		down, up := child(), child()
		down.upper[branch], up.lower[branch] = math.Floor(x[branch]), math.Ceil(x[branch])
		heap.Push(queue, down)
		heap.Push(queue, up)

		// Early termination on gap.
		if opt.Gap > 0 && incumbentObj < math.Inf(1) {
			lo := queueBound(queue, incumbentObj)
			if relGap(incumbentObj, lo) <= opt.Gap {
				bestBound = lo
				sawLimit = false
				queue = &nodeQueue{}
			}
		}
	}

	if queue.Len() > 0 {
		bestBound = queueBound(queue, incumbentObj)
	} else if math.IsInf(bestBound, -1) {
		bestBound = incumbentObj
	}

	switch {
	case incumbent == nil && sawLimit:
		return &Solution{Status: Limit, Nodes: nodes, Bound: bestBound}, nil
	case incumbent == nil:
		return &Solution{Status: Infeasible, Nodes: nodes}, nil
	case sawLimit:
		return &Solution{Status: Feasible, Objective: incumbentObj, X: incumbent, Nodes: nodes, Bound: bestBound}, nil
	default:
		return &Solution{Status: Optimal, Objective: incumbentObj, X: incumbent, Nodes: nodes, Bound: bestBound}, nil
	}
}

// relaxation is the reusable LP scaffold for one branch-and-bound run.
// Nodes differ from each other only in per-variable bounds, yet the old
// per-node build re-copied the objective, every structural constraint map,
// and n fresh singleton bound maps for every node explored. Here the
// objective and structural rows are installed once (sharing the MILP's own
// coefficient maps — lp.Solve never mutates rows), and each node solve
// truncates back to the structural prefix and re-appends only that node's
// bound rows, reusing one {i: 1} map per variable across all nodes.
//
// Row order — structural rows first, then for each variable i ascending:
// upper bound (when finite), lower bound (when positive) — reproduces the
// former from-scratch build exactly, so the simplex tableau, its pivot
// sequence, and the returned solutions are bit-identical.
type relaxation struct {
	p        *Problem
	rel      *lp.Problem
	baseRows int
	unit     []map[int]float64
}

func (p *Problem) newRelaxation() (*relaxation, error) {
	rel := lp.NewProblem(p.n)
	for i := 0; i < p.n; i++ {
		if err := rel.SetObjective(i, p.obj[i]); err != nil {
			return nil, err
		}
	}
	for _, r := range p.rows {
		if err := rel.AddConstraintShared(r.coeffs, r.op, r.rhs); err != nil {
			return nil, err
		}
	}
	unit := make([]map[int]float64, p.n)
	for i := range unit {
		unit[i] = map[int]float64{i: 1}
	}
	return &relaxation{p: p, rel: rel, baseRows: rel.NumConstraints(), unit: unit}, nil
}

// solve solves the LP relaxation of the base problem with the node's
// bounds and the global upper bounds applied.
func (rc *relaxation) solve(nd *node) (*lp.Solution, error) {
	p := rc.p
	rc.rel.TruncateConstraints(rc.baseRows)
	for i := 0; i < p.n; i++ {
		ub := p.upper[i]
		if nb, ok := nd.upper[i]; ok && nb < ub {
			ub = nb
		}
		if !math.IsInf(ub, 1) {
			if err := rc.rel.AddConstraintShared(rc.unit[i], lp.LE, ub); err != nil {
				return nil, err
			}
		}
		if lb, ok := nd.lower[i]; ok && lb > 0 {
			if err := rc.rel.AddConstraintShared(rc.unit[i], lp.GE, lb); err != nil {
				return nil, err
			}
		}
	}
	return rc.rel.Solve(0)
}

func copyBounds(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func roundIntegers(x []float64, integer []bool) []float64 {
	out := append([]float64(nil), x...)
	for i, isInt := range integer {
		if isInt {
			out[i] = math.Round(out[i])
		}
	}
	return out
}

func queueBound(q *nodeQueue, incumbent float64) float64 {
	lo := incumbent
	for _, nd := range *q {
		if nd.bound < lo {
			lo = nd.bound
		}
	}
	return lo
}

func relGap(incumbent, bound float64) float64 {
	if incumbent == 0 {
		return math.Abs(incumbent - bound)
	}
	return math.Abs(incumbent-bound) / math.Abs(incumbent)
}

// validIncumbent screens a caller-supplied warm-start point: it must have
// the right arity, respect variable bounds and integrality, and satisfy
// every constraint row (within tolerance). Returns the rounded point and
// its true objective, or ok=false when the point cannot seed the search.
func (p *Problem) validIncumbent(x []float64) ([]float64, float64, bool) {
	if len(x) != p.n {
		return nil, 0, false
	}
	const tol = 1e-6
	for i, v := range x {
		if v < -tol || v > p.upper[i]+tol {
			return nil, 0, false
		}
		if p.integer[i] && math.Abs(v-math.Round(v)) > intTol {
			return nil, 0, false
		}
	}
	out := roundIntegers(x, p.integer)
	// Each row sums in ascending variable order: a float sum taken in map
	// iteration order could land on either side of the tolerance from run
	// to run.
	var keys []int
	for _, r := range p.rows {
		keys = keys[:0]
		for i := range r.coeffs {
			keys = append(keys, i)
		}
		sort.Ints(keys)
		var lhs float64
		for _, i := range keys {
			lhs += r.coeffs[i] * out[i]
		}
		switch r.op {
		case lp.LE:
			if lhs > r.rhs+tol {
				return nil, 0, false
			}
		case lp.GE:
			if lhs < r.rhs-tol {
				return nil, 0, false
			}
		default:
			if math.Abs(lhs-r.rhs) > tol {
				return nil, 0, false
			}
		}
	}
	return out, p.value(out), true
}

// value returns the objective at x.
func (p *Problem) value(x []float64) float64 {
	var obj float64
	for i, c := range p.obj {
		obj += c * x[i]
	}
	return obj
}

// mostFractional returns the integer variable farthest from an integer
// in x (the first on ties), or -1 when every one is within intTol.
func (p *Problem) mostFractional(x []float64) int {
	branch, worst := -1, intTol
	for i, isInt := range p.integer {
		if frac := math.Abs(x[i] - math.Round(x[i])); isInt && frac > worst {
			branch, worst = i, frac
		}
	}
	return branch
}

// dive runs the root diving heuristic: fix the most fractional integer
// variable to its nearest value (flipping once on infeasibility) until the
// relaxation is integral. Returns the incumbent, its true objective, and
// whether the dive succeeded.
func (p *Problem) dive(rc *relaxation) ([]float64, float64, bool) {
	nd := &node{lower: map[int]float64{}, upper: map[int]float64{}}
	maxSteps := 2*len(p.integer) + 10
	for step := 0; step < maxSteps; step++ {
		sol, err := rc.solve(nd)
		if err != nil || sol.Status != lp.Optimal {
			return nil, 0, false
		}
		x := clampToDomain(sol.X, p, nd)
		branch := p.mostFractional(x)
		if branch < 0 {
			out := roundIntegers(x, p.integer)
			return out, p.value(out), true
		}
		r := math.Round(x[branch])
		nd.lower[branch], nd.upper[branch] = r, r
		if probe, err := rc.solve(nd); err != nil || probe.Status != lp.Optimal {
			// Flip to the other neighbouring integer once.
			var flip float64
			if r > x[branch] {
				flip = math.Floor(x[branch])
			} else {
				flip = math.Ceil(x[branch])
			}
			nd.lower[branch], nd.upper[branch] = flip, flip
		}
	}
	return nil, 0, false
}

// clampToDomain clips a relaxation solution into the node's variable
// domains, suppressing simplex noise past active bounds.
func clampToDomain(xs []float64, p *Problem, nd *node) []float64 {
	x := append([]float64(nil), xs...)
	for i := range x {
		if ub, ok := nd.upper[i]; ok && x[i] > ub {
			x[i] = ub
		}
		if lb, ok := nd.lower[i]; ok && x[i] < lb {
			x[i] = lb
		}
		if x[i] > p.upper[i] {
			x[i] = p.upper[i]
		}
		if x[i] < 0 {
			x[i] = 0
		}
	}
	return x
}
