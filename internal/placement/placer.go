package placement

import (
	"fmt"
	"time"
)

// Solver is a placement optimization backend.
type Solver interface {
	Solve(p *Problem, pol Policy) (*Assignment, error)
}

// Placer implements Algorithm 1's incremental placement: it receives
// batches of newly arriving applications, filters feasible servers, solves
// the optimization with the configured policy, and returns the placement
// and power decisions. Committing the decisions to the cluster is the
// orchestrator's job.
//
// The default exact backend first tries ExactSolver's certificate: when
// every app's cheapest feasible server provably is the MILP's unique
// optimum, that assignment is returned without building the MILP — it is
// the answer branch and bound would return — and Result.BnBNodes is 0.
// Either way the assignment goes through the same CheckFeasible and
// Evaluate as any backend's.
type Placer struct {
	// Policy is the optimization objective (default CarbonAware).
	Policy Policy
	// ExactPairLimit routes instances with at most this many feasible
	// (app, server) pairs to the exact MILP backend; larger instances
	// use the heuristic (0 = 220).
	ExactPairLimit int
	// Exact and Heuristic override the default backends (for ablations).
	Exact     Solver
	Heuristic Solver
}

// NewPlacer returns a placer with the CarbonEdge policy and default
// backends.
func NewPlacer(pol Policy) *Placer {
	if pol == nil {
		pol = CarbonAware{}
	}
	return &Placer{Policy: pol}
}

// Result carries an assignment with its metrics and solve telemetry.
type Result struct {
	Assignment *Assignment
	Metrics    Metrics
	// Backend names the solver used ("exact", "heuristic", or
	// "heuristic-fallback").
	Backend string
	// SolveTime is the wall-clock time of the solver that produced the
	// assignment; on heuristic fallback it covers only the fallback
	// solve, not the failed exact attempt.
	SolveTime time.Duration
	// TotalSolveTime is the end-to-end optimization time including any
	// failed exact attempt; equal to SolveTime when no fallback occurred.
	TotalSolveTime time.Duration
	// BnBNodes counts the branch-and-bound nodes an *ExactSolver explored:
	// 0 when its certificate closed the batch, and for every other backend.
	BnBNodes int
}

// Place solves one batch (Algorithm 1 lines 1-10).
func (pl *Placer) Place(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := pl.Policy
	if pol == nil {
		pol = CarbonAware{}
	}

	// Count feasible pairs to pick a backend (line 7's filtered set).
	pairs := 0
	for i := range p.Apps {
		pairs += len(p.FeasibleServers(i))
	}
	limit := pl.ExactPairLimit
	if limit <= 0 {
		limit = 220
	}

	// The problem was validated above, once, at this entry point: the
	// default backends are told to trust it instead of re-deriving the
	// ID/shape maps per solve. Caller-supplied backends keep whatever
	// validation posture they were configured with.
	var solver Solver
	backend := "heuristic"
	if pairs <= limit {
		backend = "exact"
		solver = pl.Exact
		if solver == nil {
			e := NewExactSolver()
			e.SkipValidate = true
			solver = e
		}
	} else {
		solver = pl.Heuristic
		if solver == nil {
			solver = &HeuristicSolver{SkipValidate: true}
		}
	}

	start := time.Now() //detlint:wallclock telemetry: Assignment.SolveTime reports solver wall time
	var a *Assignment
	var err error
	nodes := 0
	if e, ok := solver.(*ExactSolver); ok {
		a, nodes, err = e.solve(p, pol, nil)
	} else {
		a, err = solver.Solve(p, pol)
	}
	solveTime := time.Since(start) //detlint:wallclock telemetry: Assignment.SolveTime reports solver wall time
	if err != nil && backend == "exact" {
		// The exact backend can reject edge cases (e.g. time limit with
		// no incumbent); fall back rather than fail the batch. Time the
		// fallback solve on its own so SolveTime reflects the backend
		// that actually produced the assignment.
		backend = "heuristic-fallback"
		var h Solver = pl.Heuristic
		if h == nil {
			h = &HeuristicSolver{SkipValidate: true}
		}
		t1 := time.Now() //detlint:wallclock telemetry: fallback solve timed on its own for Assignment.SolveTime
		a, err = h.Solve(p, pol)
		solveTime = time.Since(t1) //detlint:wallclock telemetry: fallback solve timed on its own for Assignment.SolveTime
	}
	totalTime := time.Since(start) //detlint:wallclock telemetry: Assignment.TotalTime reports end-to-end wall time
	if err != nil {
		return nil, fmt.Errorf("placement: %s backend: %w", backend, err)
	}
	if err := p.CheckFeasible(a); err != nil {
		return nil, fmt.Errorf("placement: %s backend returned infeasible assignment: %w", backend, err)
	}
	return &Result{
		Assignment:     a,
		Metrics:        p.Evaluate(a),
		Backend:        backend,
		SolveTime:      solveTime,
		TotalSolveTime: totalTime,
		BnBNodes:       nodes,
	}, nil
}
