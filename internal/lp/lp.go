// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c.x
//	subject to  A x (<= | = | >=) b,   x >= 0
//
// It is the linear-programming kernel underneath the branch-and-bound MILP
// solver (package mip) that stands in for Google OR-Tools in the
// CarbonEdge placement service. Upper bounds on variables are expressed as
// explicit constraint rows by callers.
//
// The implementation favours robustness over raw speed: Bland's rule
// guards against cycling, and all pivots re-normalize rows to bound error
// growth. It comfortably handles the few-thousand-variable relaxations the
// exact placement backend produces; larger instances are routed to the
// heuristic backend by the placement service.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // <=
	EQ           // ==
	GE           // >=
)

// Constraint is one row: Coeffs.x Op RHS. Coeffs is sparse (index ->
// coefficient) to keep large structured models cheap to build.
type Constraint struct {
	Coeffs map[int]float64
	Op     Op
	RHS    float64
}

// Problem is a linear program under construction.
type Problem struct {
	numVars int
	obj     []float64
	rows    []Constraint
}

// NewProblem creates a problem with n non-negative variables.
func NewProblem(n int) *Problem {
	return &Problem{numVars: n, obj: make([]float64, n)}
}

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjective sets the objective coefficient of variable i (minimized).
func (p *Problem) SetObjective(i int, c float64) error {
	if i < 0 || i >= p.numVars {
		return fmt.Errorf("lp: objective index %d out of range [0,%d)", i, p.numVars)
	}
	p.obj[i] = c
	return nil
}

// AddConstraintShared appends a constraint row that aliases coeffs instead
// of copying it. The caller promises not to mutate the map while the
// problem is in use; Solve never writes to rows, so one map may back rows
// in many problems (the MILP solver shares its structural rows and
// per-variable bound rows across every branch-and-bound node this way).
// Explicit zero coefficients are kept; they are harmless to the solve.
func (p *Problem) AddConstraintShared(coeffs map[int]float64, op Op, rhs float64) error {
	if err := checkIndices(coeffs, p.numVars); err != nil {
		return err
	}
	p.rows = append(p.rows, Constraint{Coeffs: coeffs, Op: op, RHS: rhs})
	return nil
}

// checkIndices rejects a row naming any variable outside [0,n). It counts
// the bad indices rather than returning at the first one, so the error
// does not depend on map iteration order.
func checkIndices(coeffs map[int]float64, n int) error {
	bad := 0
	for i := range coeffs {
		if i < 0 || i >= n {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("lp: %d constraint indices out of range [0,%d)", bad, n)
	}
	return nil
}

// TruncateConstraints drops every constraint row after the first n,
// keeping their capacity for reuse. It lets a caller keep a problem's
// expensive structural prefix and re-append a cheap varying suffix (the
// branch-and-bound per-node variable bounds). n outside [0, NumConstraints]
// is ignored.
func (p *Problem) TruncateConstraints(n int) {
	if n >= 0 && n <= len(p.rows) {
		p.rows = p.rows[:n]
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// Solution is the result of a successful solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
}

// ErrBadProblem reports structurally invalid input.
var ErrBadProblem = errors.New("lp: invalid problem")

const eps = 1e-9

// Solve runs two-phase simplex. maxIter bounds total pivots (0 means a
// generous default based on problem size).
func (p *Problem) Solve(maxIter int) (*Solution, error) {
	if p.numVars == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrBadProblem)
	}
	m := len(p.rows)
	n := p.numVars
	if maxIter <= 0 {
		maxIter = 200 * (m + n + 10)
	}

	// Build the tableau. Columns: n structural | m slack/surplus |
	// up to m artificial | RHS. Rows are normalized to b >= 0 first.
	type rowKind struct {
		op  Op
		neg bool
	}
	kinds := make([]rowKind, m)
	// Count artificials needed.
	numArt := 0
	for i, r := range p.rows {
		op, rhs := r.Op, r.RHS
		neg := rhs < 0
		if neg {
			// Multiply through by -1: flips the relation.
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		kinds[i] = rowKind{op, neg}
		if op == GE || op == EQ {
			numArt++
		}
	}
	width := n + m + numArt + 1
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, width)
	}
	basis := make([]int, m)

	artCol := n + m
	for i, r := range p.rows {
		sign := 1.0
		if kinds[i].neg {
			sign = -1
		}
		// Row equilibration: divide each row by its largest absolute
		// coefficient so that mixed-scale models (resource capacities
		// span 1..1e9 in placement instances) stay well-conditioned
		// against the solver's absolute pivot tolerances. Dividing an
		// inequality by a positive scalar preserves the feasible set.
		scale := math.Abs(r.RHS)
		for _, v := range r.Coeffs {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		if scale < 1 {
			scale = 1
		}
		inv := sign / scale
		for j, v := range r.Coeffs {
			t[i][j] = inv * v
		}
		t[i][width-1] = inv * r.RHS
		switch kinds[i].op {
		case LE:
			t[i][n+i] = 1
			basis[i] = n + i
		case GE:
			t[i][n+i] = -1
			t[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			t[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	iterBudget := maxIter
	// Phase 1: minimize sum of artificials, if any.
	if numArt > 0 {
		obj := t[m]
		for j := range obj {
			obj[j] = 0
		}
		for j := n + m; j < n+m+numArt; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				for j := 0; j < width; j++ {
					t[m][j] -= t[i][j]
				}
			}
		}
		st, used := runSimplex(t, basis, width, n+m+numArt, iterBudget)
		iterBudget -= used
		if st == IterLimit {
			return &Solution{Status: IterLimit}, nil
		}
		if -t[m][width-1] > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < n+m {
				continue
			}
			pivoted := false
			for j := 0; j < n+m; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j, width)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; keep the artificial at zero level.
				_ = pivoted
			}
		}
	}

	// Phase 2: restore the true objective, price out the basis, and
	// forbid artificial columns re-entering.
	obj := t[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = p.obj[j]
	}
	for i := 0; i < m; i++ {
		b := basis[i]
		if b < n && p.obj[b] != 0 {
			coef := p.obj[b]
			for j := 0; j < width; j++ {
				t[m][j] -= coef * t[i][j]
			}
		}
	}
	st, _ := runSimplex(t, basis, width, n+m, iterBudget)
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	case IterLimit:
		return &Solution{Status: IterLimit}, nil
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = t[i][width-1]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		objVal += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: objVal, X: x}, nil
}

// runSimplex performs primal simplex pivots on the tableau until
// optimality, unboundedness, or the iteration budget is exhausted.
// Columns >= allowCols may not enter the basis (used to freeze
// artificials in phase 2). It returns the status and pivots used.
//
// Pricing: Dantzig's rule (most negative reduced cost) for speed, falling
// back to Bland's rule (first negative) after a streak of degenerate
// pivots — Dantzig can stall on the highly degenerate placement
// relaxations, while Bland guarantees termination.
func runSimplex(t [][]float64, basis []int, width, allowCols, maxIter int) (Status, int) {
	m := len(basis)
	degenerate := 0
	const blandAfter = 24
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		if degenerate < blandAfter {
			best := -eps
			for j := 0; j < allowCols; j++ {
				if t[m][j] < best {
					best = t[m][j]
					enter = j
				}
			}
		} else {
			for j := 0; j < allowCols; j++ {
				if t[m][j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, iter
		}
		// Leaving variable: minimum ratio test, ties by smallest basis
		// index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][enter]
			if a > eps {
				ratio := t[i][width-1] / a
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, iter
		}
		// Track degeneracy: a zero-ratio pivot leaves the objective
		// unchanged; long streaks trigger the Bland fallback.
		if best < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		pivot(t, basis, leave, enter, width)
	}
	return IterLimit, maxIter
}

// pivot performs a full Gauss-Jordan pivot on (row, col).
func pivot(t [][]float64, basis []int, row, col, width int) {
	m := len(basis)
	pv := t[row][col]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		t[row][j] *= inv
	}
	t[row][col] = 1 // kill rounding residue
	for i := 0; i <= m; i++ {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			t[i][j] -= f * t[row][j]
		}
		t[i][col] = 0
	}
	basis[row] = col
}
