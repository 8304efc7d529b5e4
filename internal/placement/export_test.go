package placement

// SolveMILP is the exact solver's MILP path with the certificate
// bypassed, exported to this package's external tests: they drive
// packages that import placement (the orchestrator, the experiment
// suite's instances) and hold what those see to the MILP.
func SolveMILP(s *ExactSolver, p *Problem, pol Policy) (*Assignment, int, error) {
	return s.solveMILP(p, pol, nil)
}
