package placement_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/experiments"
	"repro/internal/latency"
	"repro/internal/orchestrator"
	"repro/internal/placement"
	"repro/internal/testbed"
)

// batchRecorder is CarbonAware that copies the first problem it prices
// after each reset: the orchestrator's batch view as the solver saw it,
// before the commit changes the workspace under it.
type batchRecorder struct {
	placement.CarbonAware
	batch *placement.Problem
}

func (r *batchRecorder) PairCost(p *placement.Problem, i, j int) float64 {
	if r.batch == nil {
		r.batch = cloneProblem(p)
	}
	return r.CarbonAware.PairCost(p, i, j)
}

// cloneProblem deep-copies a problem's exported fields and stamps the
// copy, every app its own class.
func cloneProblem(p *placement.Problem) *placement.Problem {
	c := placement.NewProblem(append([]placement.App(nil), p.Apps...), append([]placement.Server(nil), p.Servers...))
	for i := range p.Apps {
		copy(c.Demand[i], p.Demand[i])
		copy(c.PowerW[i], p.PowerW[i])
		copy(c.LatencyMs[i], p.LatencyMs[i])
		copy(c.Compatible[i], p.Compatible[i])
	}
	return placement.Stamp(c)
}

// TestOrchestratorStreamCertified drives a Florida testbed orchestrator
// through the orchestrator_live workload's stream without HTTP or
// traffic: 300 rounds of deploy ×5, place, 24 hourly ticks and a delete
// of the five deployed three rounds earlier. Every batch must be closed
// by the exact solver's certificate (0 branch-and-bound nodes), and the
// MILP solved on a copy of the batch must place every app where the
// orchestrator committed it, switching nothing on. It sits in
// placement's external tests because only they reach the MILP path.
func TestOrchestratorStreamCertified(t *testing.T) {
	zones, err := carbon.DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	rec := &batchRecorder{}
	region := testbed.Florida()
	tb, err := testbed.New(testbed.Config{
		Region: region,
		Zones:  zones,
		Traces: carbon.NewGenerator(42).GenerateTraces(zones),
		Cities: cities,
		Policy: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := tb.Orch
	const rounds = 300
	name := func(round int, city string) string { return fmt.Sprintf("app-%04d-%s", round, city) }
	for r := 0; r < rounds; r++ {
		for _, dc := range region.DCs {
			if err := o.Submit(orchestrator.Recipe{
				Name: name(r, dc.City), Model: "ResNet50", Source: dc.City, SLOms: 20, RatePerSec: 2,
			}); err != nil {
				t.Fatal(err)
			}
		}
		rec.batch = nil
		placed, rejected, err := o.PlaceBatch()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if stats, _, _ := o.PlacementStats(); stats.Backend != "exact" || stats.BnBNodes != 0 {
			t.Fatalf("round %d: batch closed by %q after %d branch-and-bound nodes, want the certificate", r, stats.Backend, stats.BnBNodes)
		}
		milp, nodes, err := placement.SolveMILP(placement.NewExactSolver(), rec.batch, placement.CarbonAware{})
		if err != nil {
			t.Fatalf("round %d: MILP: %v", r, err)
		}
		want, got := map[string]string{}, map[string]string{}
		for i, j := range milp.ServerOf {
			want[rec.batch.Apps[i].ID] = ""
			if j >= 0 {
				want[rec.batch.Apps[i].ID] = rec.batch.Servers[j].ID
			}
		}
		for _, d := range placed {
			got[d.Recipe.Name] = d.ServerID
		}
		for _, n := range rejected {
			got[n] = ""
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: orchestrator committed %v, MILP (%d nodes) places %v", r, got, nodes, want)
		}
		for j, on := range milp.PowerOn {
			if on != rec.batch.Servers[j].PoweredOn {
				t.Fatalf("round %d: MILP switches server %s to %v", r, rec.batch.Servers[j].ID, on)
			}
		}
		for k := 0; k < 24; k++ {
			if err := o.Tick(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if r >= 3 {
			for _, dc := range region.DCs {
				if err := o.Undeploy(name(r-3, dc.City)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	scrape := httptest.NewRecorder()
	o.API().ServeHTTP(scrape, httptest.NewRequest("GET", "/metrics", nil))
	text := scrape.Body
	for _, line := range []string{
		fmt.Sprintf(`carbonedge_placement_exact_batches_total{closed_by="bound"} %d`, rounds),
		`carbonedge_placement_exact_batches_total{closed_by="branch_and_bound"} 0`,
	} {
		if !strings.Contains(text.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// BenchmarkExactMILP8x8 times the MILP path alone on the instance root
// BenchmarkExactSolve8x8 solves through the public entry, so the two
// together show what the certificate saves there.
func BenchmarkExactMILP8x8(b *testing.B) {
	b.ReportAllocs()
	prob, err := experiments.SyntheticProblem(8, 8, 7)
	if err != nil {
		b.Fatal(err)
	}
	solver := placement.NewExactSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := placement.SolveMILP(solver, prob, placement.CarbonAware{}); err != nil {
			b.Fatal(err)
		}
	}
}
