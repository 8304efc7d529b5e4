package placement_test

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// TestSolversRejectUnstampedProblem builds a problem from the exported
// fields alone, as a caller outside the package can, with and without
// candidate lists. It lacks a Workspace view's class stamp, so each entry
// point must refuse it with an error naming the stamp instead of
// indexing the missing rows.
func TestSolversRejectUnstampedProblem(t *testing.T) {
	free := cluster.NewResources(100, 100, 100, 100)
	for _, cand := range [][][]int{nil, {{0, 1}, {1}}} {
		p := &placement.Problem{
			Apps: []placement.App{{ID: "a0", SLOms: 20}, {ID: "a1", SLOms: 20}},
			Servers: []placement.Server{
				{ID: "s0", Intensity: 100, PoweredOn: true, Free: free},
				{ID: "s1", Intensity: 200, PoweredOn: true, Free: free},
			},
			Demand:     [][]cluster.Resources{{{}, {}}, {{}, {}}},
			PowerW:     [][]float64{{10, 10}, {10, 10}},
			LatencyMs:  [][]float64{{5, 5}, {30, 5}},
			Compatible: [][]bool{{true, true}, {true, true}},
			Candidates: cand,
		}
		for name, solve := range map[string]func() error{
			"heuristic": func() error { _, err := placement.NewHeuristicSolver().Solve(p, placement.CarbonAware{}); return err },
			"exact":     func() error { _, err := placement.NewExactSolver().Solve(p, placement.CarbonAware{}); return err },
			"placer":    func() error { _, err := placement.NewPlacer(nil).Place(p); return err },
		} {
			if err := solve(); err == nil || !strings.Contains(err.Error(), "class stamp") {
				t.Errorf("%s with candidates %v: error %v, want one naming the missing class stamp", name, cand, err)
			}
		}
	}
}
