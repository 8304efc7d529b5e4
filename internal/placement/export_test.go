package placement

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// The dense builder is test-only: Workspace.Problem is the one production
// builder of a Problem, and Build, NewProblem and Stamp stay here as its
// oracle (TestWorkspaceProblemMatchesBuild, the sweep oracle, brute force)
// and for hand-built fixtures. They are exported so this package's
// external tests reach them too.

// Build assembles a dense Problem from apps, the placement view of
// servers, a latency oracle, and the profiling service's (model, device)
// table. It fills the R_ij, E_ij, and L_ij matrices of the formulation:
//
//   - Demand and PowerW: Coefficients of the (model, device) profile.
//   - LatencyMs: from the RTT oracle.
//   - Compatible: whether a profile exists for (model, device) and the
//     app does not saturate the device.
func Build(apps []App, servers []Server, rtt RTTFunc, profile func(model, device string) (energy.Profile, error)) (*Problem, error) {
	if rtt == nil {
		return nil, fmt.Errorf("placement: nil RTT oracle")
	}
	if profile == nil {
		profile = energy.ProfileFor
	}
	p := NewProblem(apps, servers)
	for i, a := range apps {
		if a.RatePerSec < 0 {
			return nil, fmt.Errorf("placement: app %s has negative rate", a.ID)
		}
		for j, s := range servers {
			p.LatencyMs[i][j] = rtt(a.Source, s.DC)
			prof, err := profile(a.Model, s.Device)
			if err != nil {
				p.Compatible[i][j] = false
				continue
			}
			d, w, ok := Coefficients(prof, a.RatePerSec)
			p.Compatible[i][j] = ok
			p.Demand[i][j], p.PowerW[i][j] = d, w
		}
	}
	return Stamp(p), nil
}

// NewProblem allocates a dense problem shell with all pairwise matrices
// sized |apps| x |servers|, each one contiguous allocation sliced into
// rows. Callers fill the matrices, then Stamp the problem.
func NewProblem(apps []App, servers []Server) *Problem {
	p := &Problem{Apps: apps, Servers: servers}
	n, m := len(apps), len(servers)
	p.Demand = make([][]cluster.Resources, n)
	p.PowerW = make([][]float64, n)
	p.LatencyMs = make([][]float64, n)
	p.Compatible = make([][]bool, n)
	demand := make([]cluster.Resources, n*m)
	power := make([]float64, n*m)
	lat := make([]float64, n*m)
	compat := make([]bool, n*m)
	for i := 0; i < n; i++ {
		lo, hi := i*m, (i+1)*m
		p.Demand[i] = demand[lo:hi:hi]
		p.PowerW[i] = power[lo:hi:hi]
		p.LatencyMs[i] = lat[lo:hi:hi]
		p.Compatible[i] = compat[lo:hi:hi]
	}
	return p
}

// Stamp gives a filled dense problem what the solvers require of a
// Workspace view, read from its own cells: every app its own class, and
// as its Candidates the servers compatible with it and within its SLO,
// ascending. It shares no code with the Workspace, so a view can be held
// to Build's problem. Call it after the last cell edit.
func Stamp(p *Problem) *Problem {
	n := len(p.Apps)
	p.Candidates = make([][]int, n)
	p.classOf, p.classRep = make([]int32, n), make([]int32, n)
	for i, a := range p.Apps {
		p.classOf[i], p.classRep[i] = int32(i), int32(i)
		for j := range p.Servers {
			if p.Compatible[i][j] && p.LatencyMs[i][j] <= a.SLOms+1e-9 {
				p.Candidates[i] = append(p.Candidates[i], j)
			}
		}
	}
	return p
}

// SolveMILP is the exact solver's MILP path with the certificate
// bypassed, exported to this package's external tests: they drive
// packages that import placement (the orchestrator, the experiment
// suite's instances) and hold what those see to the MILP.
func SolveMILP(s *ExactSolver, p *Problem, pol Policy) (*Assignment, int, error) {
	return s.solveMILP(p, pol, nil)
}

// placedCount reports how many apps received a server.
func placedCount(a *Assignment) int {
	n := 0
	for _, s := range a.ServerOf {
		if s >= 0 {
			n++
		}
	}
	return n
}
