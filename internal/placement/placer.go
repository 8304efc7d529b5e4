package placement

import (
	"fmt"
	"time"
)

// Solver is a placement optimization backend: the one contract both the
// exact and the heuristic backend implement.
type Solver interface {
	// SolveInto writes the assignment of p under pol into dst. A non-nil
	// warm seeds the search with a previous assignment; only
	// warm.ServerOf is read, and entries no longer feasible are skipped.
	SolveInto(dst *Assignment, p *Problem, pol Policy, warm *Assignment) error
}

// solveNew is SolveInto into a fresh assignment: the allocating form
// behind both backends' Solve.
func solveNew(s Solver, p *Problem, pol Policy, warm *Assignment) (*Assignment, error) {
	a := &Assignment{}
	if err := s.SolveInto(a, p, pol, warm); err != nil {
		return nil, err
	}
	return a, nil
}

// ExactPairLimit routes a batch with at most this many feasible (app,
// server) pairs to the exact MILP backend, subject to ExactIntegerLimit;
// larger batches use the heuristic.
const ExactPairLimit = 220

// ExactIntegerLimit routes a batch to the exact backend only when its
// MILP has at most this many integers, one per feasible (class, server)
// pair over the view's classes (Problem.classOf); a batch the certificate
// closes builds no MILP and is not bound by it. The node budget bounds
// the count of branch-and-bound nodes, but a node's dense simplex costs
// more the more integers the model holds. Measured on a 2-vCPU x86-64 host with 44
// apps of one model in k classes on five servers (5k integers, seeds 1–6
// and 9–11, CarbonAware and the α = 0.5 blend), the slowest solve that
// spent the whole budget took 0.17 s at 40 integers, 0.23 s at 50 and
// 0.51 s at 60; past the limit, 0.55 s at 65, 0.89 s at 90 and 1.9 s at
// 100, and 44 apps in 44 classes (220 integers) took 13.6–20.9 s.
const ExactIntegerLimit = 60

// Placer implements Algorithm 1's incremental placement: it receives
// batches of newly arriving applications, filters feasible servers, solves
// the optimization with the configured policy, and returns the placement
// and power decisions. Committing the decisions to the cluster is the
// orchestrator's job.
//
// The exact backend first tries ExactSolver's certificate: when every
// app's cheapest feasible server provably is the MILP's unique optimum,
// that assignment is returned without building the MILP — it is the
// answer branch and bound would return — and Result.BnBNodes is 0. Either
// way the assignment goes through the same CheckFeasible and Evaluate as
// the heuristic's.
type Placer struct {
	// Policy is the optimization objective (default CarbonAware).
	Policy Policy

	// exact replaces the default exact backend; tests set it to force the
	// heuristic fallback.
	exact Solver
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
	// BnBNodes counts the branch-and-bound nodes the exact backend
	// explored: 0 when its certificate closed the batch, and for the
	// heuristic.
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

	// Count feasible pairs (line 7's filtered set) and the MILP's
	// integers, one per feasible pair of each class's lowest app, to pick
	// a backend.
	cls, rep := p.classOf, p.classRep
	pairs, integers := 0, 0
	for i := range p.Apps {
		n := len(p.FeasibleServers(i))
		pairs += n
		if rep[cls[i]] == int32(i) {
			integers += n
		}
	}

	// The problem was validated above, once, at this entry point: the
	// backends are told to trust it instead of re-deriving the ID/shape
	// maps per solve.
	nodes := 0
	backend, solver := "exact", pl.exact
	// A batch the certificate closes builds no MILP, so the integer limit
	// does not bind it (certify is one pass over the feasible pairs).
	if pairs > ExactPairLimit || integers > ExactIntegerLimit && certify(p, pol) == nil {
		backend, solver = "heuristic", &HeuristicSolver{SkipValidate: true}
	} else if solver == nil {
		e := NewExactSolver()
		e.SkipValidate, e.nodes = true, &nodes
		solver = e
	}

	a := &Assignment{}
	start := time.Now() //detlint:wallclock telemetry: Assignment.SolveTime reports solver wall time
	err := solver.SolveInto(a, p, pol, nil)
	solveTime := time.Since(start) //detlint:wallclock telemetry: Assignment.SolveTime reports solver wall time
	if err != nil && backend == "exact" {
		// The exact backend can reject edge cases (e.g. a node budget
		// spent with no incumbent, or a batch that fits the relaxation
		// but not in integers); fall back rather than fail the batch.
		// Time the fallback solve on its own so SolveTime reflects the
		// backend that actually produced the assignment.
		backend = "heuristic-fallback"
		t1 := time.Now() //detlint:wallclock telemetry: fallback solve timed on its own for Assignment.SolveTime
		err = (&HeuristicSolver{SkipValidate: true}).SolveInto(a, p, pol, nil)
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
