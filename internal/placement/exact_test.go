package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/mip"
)

// alikeInstance draws a workspace batch of two to four classes of 2–8
// alike apps each, interleaved in a random order, on three to five
// servers at three sites; every app has a feasible server. The RTT
// oracle puts "nowhere" 1 000 ms from every site.
func alikeInstance(rng *rand.Rand) wsInstance {
	sites := []string{"c0", "c1", "c2"}
	devices := []energy.Device{energy.A2, energy.GTX1080, energy.OrinNano}
	servers := make([]Server, 3+rng.Intn(3))
	for j := range servers {
		d := devices[rng.Intn(len(devices))]
		servers[j] = Server{
			ID: fmt.Sprintf("s%d", j), DC: sites[rng.Intn(len(sites))], Device: d.Name,
			Intensity: 50 + 700*rng.Float64(), BasePowerW: d.IdleW, PoweredOn: rng.Intn(3) > 0,
			Free: cluster.NewResources(200+800*rng.Float64(), 8192, float64(d.MemMB), 1e6),
		}
	}
	models := []string{energy.ModelResNet50, energy.ModelEfficientNetB0}
	var apps []App
	for c, nc := 0, 2+rng.Intn(3); c < nc; c++ {
		proto := App{
			Model: models[rng.Intn(len(models))], Source: sites[rng.Intn(len(sites))],
			SLOms: []float64{8, 14, 25}[rng.Intn(3)], RatePerSec: []float64{2, 4, 7}[rng.Intn(3)],
		}
		for k, size := 0, 2+rng.Intn(7); k < size; k++ {
			apps = append(apps, proto)
		}
	}
	rng.Shuffle(len(apps), func(a, b int) { apps[a], apps[b] = apps[b], apps[a] })
	for i := range apps {
		apps[i].ID = fmt.Sprintf("a%02d", i)
	}
	rtt := func(a, b string) float64 {
		switch {
		case a == "nowhere" || b == "nowhere":
			return 1000
		case a == b:
			return 2
		}
		return 6 + 4*math.Abs(float64(a[1])-float64(b[1]))
	}
	return wsInstance{apps: apps, servers: servers, rtt: rtt}
}

// view builds the instance's workspace view.
func (inst wsInstance) view(t *testing.T) *Problem {
	t.Helper()
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ws.Problem(inst.apps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExactMetamorphic holds the exact backend at zero gap to relations
// that need no second implementation, on seeded workspace batches of
// alike apps (alikeInstance), which the MILP solves in classes. Each
// relation derives a second solve from the first (another batch, or a
// warm start) and compares the two. An instance whose batch has an app with no feasible server, or
// that the MILP proves does not fit, is drawn again.
func TestExactMetamorphic(t *testing.T) {
	solver := &ExactSolver{Options: mip.Options{}}
	pol := CarbonAware{}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
	relations := []struct {
		name  string
		check func(t *testing.T, rng *rand.Rand, inst wsInstance, base *Assignment, obj float64)
	}{
		{"same batch twice, same assignment", func(t *testing.T, _ *rand.Rand, inst wsInstance, base *Assignment, _ float64) {
			a, err := solver.Solve(inst.view(t), pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, base) {
				t.Fatalf("second solve %+v, first %+v", a, base)
			}
		}},
		{"permuted apps, same objective", func(t *testing.T, rng *rand.Rand, inst wsInstance, _ *Assignment, obj float64) {
			perm := inst
			perm.apps = append([]App(nil), inst.apps...)
			rng.Shuffle(len(perm.apps), func(a, b int) { perm.apps[a], perm.apps[b] = perm.apps[b], perm.apps[a] })
			p := perm.view(t)
			a, err := solver.Solve(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			if got := objective(p, pol, a.ServerOf, a.PowerOn); !near(got, obj) {
				t.Fatalf("permuted objective %.12g, want %.12g", got, obj)
			}
		}},
		{"unusable server, same assignment", func(t *testing.T, _ *rand.Rand, inst wsInstance, base *Assignment, _ float64) {
			more := inst
			more.servers = append(append([]Server(nil), inst.servers...), Server{
				ID: "s-nowhere", DC: "nowhere", Device: energy.A2.Name, Intensity: 1, BasePowerW: energy.A2.IdleW,
				Free: cluster.NewResources(1e6, 1e6, 1e6, 1e6),
			})
			a, err := solver.Solve(more.view(t), pol)
			if err != nil {
				t.Fatal(err)
			}
			m := len(inst.servers)
			if !reflect.DeepEqual(a.ServerOf, base.ServerOf) || !reflect.DeepEqual(a.PowerOn[:m], base.PowerOn) || a.PowerOn[m] || !reflect.DeepEqual(a.Unplaced, base.Unplaced) {
				t.Fatalf("with an unusable server %+v, without %+v", a, base)
			}
		}},
		{"warm from its own answer, one node, same objective", func(t *testing.T, _ *rand.Rand, inst wsInstance, base *Assignment, obj float64) {
			// One node is too few to prove most of these batches: only an
			// accepted warm incumbent (the answer as per-class counts)
			// keeps the optimum.
			p := inst.view(t)
			a, _, err := (&ExactSolver{Options: mip.Options{MaxNodes: 1}}).solveMILP(p, pol, base)
			if err != nil {
				t.Fatal(err)
			}
			if got := objective(p, pol, a.ServerOf, a.PowerOn); !near(got, obj) {
				t.Fatalf("warm one-node objective %.12g, want %.12g", got, obj)
			}
		}},
		{"more capacity, objective no higher", func(t *testing.T, rng *rand.Rand, inst wsInstance, _ *Assignment, obj float64) {
			more := inst
			more.servers = append([]Server(nil), inst.servers...)
			j := rng.Intn(len(more.servers))
			more.servers[j].Free = more.servers[j].Free.Scale(1.5)
			p := more.view(t)
			a, err := solver.Solve(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			if got := objective(p, pol, a.ServerOf, a.PowerOn); len(a.Unplaced) > 0 || got > obj && !near(got, obj) {
				t.Fatalf("server %d at 1.5× capacity: objective %.12g with %d unplaced, was %.12g", j, got, len(a.Unplaced), obj)
			}
		}},
		{"looser SLO, objective no higher", func(t *testing.T, _ *rand.Rand, inst wsInstance, _ *Assignment, obj float64) {
			loose := inst
			loose.apps = append([]App(nil), inst.apps...)
			for i := range loose.apps {
				loose.apps[i].SLOms += 10
			}
			p := loose.view(t)
			a, err := solver.Solve(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			if got := objective(p, pol, a.ServerOf, a.PowerOn); len(a.Unplaced) > 0 || got > obj && !near(got, obj) {
				t.Fatalf("SLO +10 ms: objective %.12g with %d unplaced, was %.12g", got, len(a.Unplaced), obj)
			}
		}},
	}
	for k, rel := range relations {
		t.Run(rel.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + k)))
			milp, redrawn := 0, 0
			for solved := 0; solved < 40; {
				inst := alikeInstance(rng)
				p := inst.view(t)
				base, err := solver.Solve(p, pol)
				if err != nil && !strings.Contains(err.Error(), "infeasible") {
					t.Fatal(err)
				}
				if err != nil || len(base.Unplaced) > 0 {
					redrawn++
					continue
				}
				if err := p.CheckFeasible(base); err != nil {
					t.Fatal(err)
				}
				if certify(p, pol) == nil {
					milp++
				}
				rel.check(t, rng, inst, base, objective(p, pol, base.ServerOf, base.PowerOn))
				solved++
			}
			t.Logf("40 batches, %d of them past the certificate; %d drawn again", milp, redrawn)
			if milp < 10 {
				t.Errorf("only %d of 40 batches reached the MILP; the relation is held mostly by the certificate", milp)
			}
		})
	}
}
