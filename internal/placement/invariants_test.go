package placement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// randomInstance builds a random placement instance over a ring of cities
// with mixed device types, mixed power states, and mixed SLOs — the stress
// profile for solver invariants.
func randomInstance(rng *rand.Rand, nApps, nServers int) (*Problem, error) {
	cities := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	devices := []string{energy.OrinNano.Name, energy.A2.Name, energy.GTX1080.Name}
	servers := make([]Server, nServers)
	for j := range servers {
		dev := devices[rng.Intn(len(devices))]
		d, _ := energy.DeviceByName(dev)
		servers[j] = Server{
			ID:         fmt.Sprintf("s%03d", j),
			DC:         cities[rng.Intn(len(cities))],
			Device:     dev,
			Intensity:  10 + rng.Float64()*800,
			BasePowerW: d.IdleW,
			PoweredOn:  rng.Intn(3) > 0,
			Free:       cluster.NewResources(200+rng.Float64()*800, 8192, float64(d.MemMB), 1e6),
		}
	}
	models := []string{energy.ModelEfficientNetB0, energy.ModelResNet50, energy.ModelYOLOv4}
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{
			ID:         fmt.Sprintf("a%03d", i),
			Model:      models[rng.Intn(len(models))],
			Source:     cities[rng.Intn(len(cities))],
			SLOms:      4 + rng.Float64()*30,
			RatePerSec: 1 + rng.Float64()*6,
		}
	}
	rtt := func(a, b string) float64 {
		ia, ib := int(a[1]-'0'), int(b[1]-'0')
		d := ia - ib
		if d < 0 {
			d = -d
		}
		if d > 3 {
			d = 6 - d // ring distance
		}
		return 2 + 5*float64(d)
	}
	return Build(apps, servers, rtt, nil)
}

// TestSolverInvariantsRandom stresses both backends over many random
// instances and checks the invariants that define a correct solver:
// feasibility of the returned assignment, consistency of the power
// decisions, and the exact optimum never exceeding the heuristic's cost.
func TestSolverInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		nApps := 1 + rng.Intn(8)
		nServers := 2 + rng.Intn(8)
		p, err := randomInstance(rng, nApps, nServers)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := NewHeuristicSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatalf("trial %d heuristic: %v", trial, err)
		}
		if err := p.CheckFeasible(heur); err != nil {
			t.Fatalf("trial %d heuristic infeasible: %v", trial, err)
		}
		exact, err := NewExactSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if err := p.CheckFeasible(exact); err != nil {
			t.Fatalf("trial %d exact infeasible: %v", trial, err)
		}

		// Power-state invariants.
		for _, a := range []*Assignment{heur, exact} {
			used := map[int]bool{}
			for _, j := range a.ServerOf {
				if j >= 0 {
					used[j] = true
				}
			}
			for j, s := range p.Servers {
				if used[j] && !a.PowerOn[j] {
					t.Fatalf("trial %d: hosting server %d powered off", trial, j)
				}
				if s.PoweredOn && !a.PowerOn[j] {
					t.Fatalf("trial %d: Eq. 4 violated at server %d", trial, j)
				}
			}
		}

		// Both backends must agree on which apps are placeable.
		if placedCount(exact) != placedCount(heur) {
			// The heuristic may occasionally place fewer apps than the
			// optimum when packing is tight; it must never place more
			// than the exact solver proves possible... but with equal
			// counts compare costs.
			if placedCount(heur) > placedCount(exact) {
				t.Fatalf("trial %d: heuristic placed %d > exact %d", trial, placedCount(heur), placedCount(exact))
			}
			continue
		}
		me, mh := p.Evaluate(exact), p.Evaluate(heur)
		if mh.CarbonGPerHour < me.CarbonGPerHour-1e-6 {
			t.Fatalf("trial %d: heuristic %.6f beat exact optimum %.6f",
				trial, mh.CarbonGPerHour, me.CarbonGPerHour)
		}
	}
}

// TestPolicyDominanceRandom verifies each policy optimizes its own metric:
// over random instances, no other policy achieves a strictly better value
// of the metric a policy owns (when placement counts match).
func TestPolicyDominanceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	solver := NewExactSolver()
	for trial := 0; trial < 25; trial++ {
		p, err := randomInstance(rng, 1+rng.Intn(5), 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			m      Metrics
			placed int
		}
		results := map[string]outcome{}
		for _, pol := range []Policy{CarbonAware{}, EnergyAware{}, LatencyAware{}} {
			a, err := solver.Solve(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			results[pol.Name()] = outcome{p.Evaluate(a), placedCount(a)}
		}
		ce, ea, la := results["CarbonEdge"], results["Energy-aware"], results["Latency-aware"]
		if ce.placed == ea.placed && ea.m.CarbonGPerHour < ce.m.CarbonGPerHour-1e-6 {
			t.Errorf("trial %d: Energy-aware beat CarbonEdge on carbon: %.4f < %.4f",
				trial, ea.m.CarbonGPerHour, ce.m.CarbonGPerHour)
		}
		if ce.placed == ea.placed && ce.m.EnergyWAvg < ea.m.EnergyWAvg-1e-6 {
			t.Errorf("trial %d: CarbonEdge beat Energy-aware on energy: %.4f < %.4f",
				trial, ce.m.EnergyWAvg, ea.m.EnergyWAvg)
		}
		if ce.placed == la.placed && ce.m.MeanLatencyMs < la.m.MeanLatencyMs-1e-6 {
			t.Errorf("trial %d: CarbonEdge beat Latency-aware on latency: %.4f < %.4f",
				trial, ce.m.MeanLatencyMs, la.m.MeanLatencyMs)
		}
	}
}

// TestEvaluateConsistency checks the accounting identity: total carbon =
// operational + activation, and energy covers dynamic power of placed apps
// plus newly activated base power.
func TestEvaluateConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		p, err := randomInstance(rng, 1+rng.Intn(6), 2+rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewHeuristicSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		m := p.Evaluate(a)
		if math.Abs(m.CarbonGPerHour-(m.OperationalGPerHour+m.ActivationGPerHour)) > 1e-9 {
			t.Fatalf("trial %d: carbon identity broken: %v != %v + %v",
				trial, m.CarbonGPerHour, m.OperationalGPerHour, m.ActivationGPerHour)
		}
		var dynamic, base float64
		for i, j := range a.ServerOf {
			if j >= 0 {
				dynamic += p.PowerW[i][j]
			}
		}
		for j, s := range p.Servers {
			if a.PowerOn[j] && !s.PoweredOn {
				base += s.BasePowerW
			}
		}
		if math.Abs(m.EnergyWAvg-(dynamic+base)) > 1e-9 {
			t.Fatalf("trial %d: energy identity broken: %v != %v + %v",
				trial, m.EnergyWAvg, dynamic, base)
		}
		if m.Placed+m.Unplaced != len(p.Apps) {
			t.Fatalf("trial %d: app accounting broken", trial)
		}
	}
}

// TestHeuristicLocalOptimality verifies the local search terminates at a
// state where no single-app move improves the carbon cost — the defining
// property of steepest descent.
func TestHeuristicLocalOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pol := CarbonAware{}
	for trial := 0; trial < 15; trial++ {
		p, err := randomInstance(rng, 2+rng.Intn(6), 3+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewHeuristicSolver().Solve(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		base := p.Evaluate(a)
		// Try every single-app relocation; none may strictly reduce
		// carbon while staying feasible.
		for i, cur := range a.ServerOf {
			if cur < 0 {
				continue
			}
			for j := range p.Servers {
				if j == cur {
					continue
				}
				trialAsg := &Assignment{
					ServerOf: append([]int(nil), a.ServerOf...),
					PowerOn:  append([]bool(nil), a.PowerOn...),
				}
				trialAsg.ServerOf[i] = j
				trialAsg.PowerOn[j] = true
				if p.CheckFeasible(trialAsg) != nil {
					continue
				}
				if m := p.Evaluate(trialAsg); m.CarbonGPerHour < base.CarbonGPerHour-1e-9 {
					t.Fatalf("trial %d: move app %d %d->%d improves carbon %.6f -> %.6f; local search stopped early",
						trial, i, cur, j, base.CarbonGPerHour, m.CarbonGPerHour)
				}
			}
		}
	}
}
