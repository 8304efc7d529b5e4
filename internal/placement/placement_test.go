package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// fixtureRTT returns a symmetric RTT oracle over three sites: local is
// 2 ms, any cross-site hop is 8 ms, except far-far pairs at 18 ms.
func fixtureRTT(source, dc string) float64 {
	if source == dc {
		return 2
	}
	if source == "far" || dc == "far" {
		return 18
	}
	return 8
}

// fixtureServers returns three A2 servers: a dirty local one, a green
// nearby one, and a green far one.
func fixtureServers() []Server {
	capacity := cluster.NewResources(1000, 16384, 16384, 1000)
	return []Server{
		{ID: "s-dirty", DC: "local", Device: energy.A2.Name, Intensity: 600, BasePowerW: 100, PoweredOn: true, Free: capacity},
		{ID: "s-green", DC: "near", Device: energy.A2.Name, Intensity: 50, BasePowerW: 100, PoweredOn: true, Free: capacity},
		{ID: "s-far", DC: "far", Device: energy.A2.Name, Intensity: 20, BasePowerW: 100, PoweredOn: true, Free: capacity},
	}
}

func fixtureApps(n int, slo float64) []App {
	apps := make([]App, n)
	for i := range apps {
		apps[i] = App{
			ID:         fmt.Sprintf("app%d", i),
			Model:      energy.ModelResNet50,
			Source:     "local",
			SLOms:      slo,
			RatePerSec: 10,
		}
	}
	return apps
}

func buildFixture(t *testing.T, nApps int, slo float64) *Problem {
	t.Helper()
	p, err := Build(fixtureApps(nApps, slo), fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildMatrices(t *testing.T) {
	p := buildFixture(t, 2, 20)
	if got := p.LatencyMs[0][0]; got != 2 {
		t.Errorf("local latency = %v, want 2", got)
	}
	if got := p.LatencyMs[0][2]; got != 18 {
		t.Errorf("far latency = %v, want 18", got)
	}
	prof, _ := energy.ProfileFor(energy.ModelResNet50, energy.A2.Name)
	wantW := 10 * prof.EnergyPerRequestJ()
	if math.Abs(p.PowerW[0][1]-wantW) > 1e-9 {
		t.Errorf("PowerW = %v, want %v", p.PowerW[0][1], wantW)
	}
	wantOcc := 10 * prof.InferenceMs
	if got := p.Demand[0][0][cluster.ResCPUMilli]; math.Abs(got-wantOcc) > 1e-9 {
		t.Errorf("occupancy = %v, want %v", got, wantOcc)
	}
	if got := p.Demand[0][0][cluster.ResGPUMemMB]; got != prof.MemMB {
		t.Errorf("gpu mem demand = %v, want %v", got, prof.MemMB)
	}
	for j := range p.Servers {
		if !p.Compatible[0][j] {
			t.Errorf("ResNet50 should be compatible with A2 server %d", j)
		}
	}
}

func TestBuildIncompatibleModelDevice(t *testing.T) {
	servers := fixtureServers()
	servers = append(servers, Server{
		ID: "s-cpu", DC: "local", Device: energy.XeonE5.Name,
		Intensity: 100, BasePowerW: 95, PoweredOn: true,
		Free: cluster.NewResources(40000, 262144, 0, 1000),
	})
	apps := []App{
		{ID: "gpu-app", Model: energy.ModelResNet50, Source: "local", SLOms: 20, RatePerSec: 5},
		{ID: "cpu-app", Model: energy.ModelSci, Source: "local", SLOms: 20, RatePerSec: 5},
	}
	p, err := Build(apps, servers, fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Compatible[0][3] {
		t.Error("ResNet50 should not run on the Xeon host")
	}
	if p.Compatible[1][0] {
		t.Error("Sci should not run on a GPU server")
	}
	if !p.Compatible[1][3] {
		t.Error("Sci must run on the Xeon host")
	}
}

func TestBuildSaturatingRateIncompatible(t *testing.T) {
	// An app whose rate saturates a device (occupancy > 1000 milli) is
	// incompatible with that device.
	apps := []App{{ID: "hot", Model: energy.ModelYOLOv4, Source: "local", SLOms: 50, RatePerSec: 50}}
	p, err := Build(apps, fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	// YOLOv4 on A2 takes 27 ms; 50 req/s -> 1350 milli > 1000.
	for j := range p.Servers {
		if p.Compatible[0][j] {
			t.Errorf("saturating app marked compatible with server %d", j)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(fixtureApps(1, 20), fixtureServers(), nil, nil); err == nil {
		t.Error("nil RTT accepted")
	}
	apps := fixtureApps(1, 20)
	apps[0].RatePerSec = -1
	if _, err := Build(apps, fixtureServers(), fixtureRTT, nil); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestCarbonAwareChoosesGreenFeasibleServer(t *testing.T) {
	// SLO 10ms: the far server (18ms) is out; the green near server
	// (50 g/kWh) beats the dirty local one (600 g/kWh).
	p := buildFixture(t, 3, 10)
	for _, solver := range []Solver{NewExactSolver(), NewHeuristicSolver()} {
		a, err := solveNew(solver, p, CarbonAware{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckFeasible(a); err != nil {
			t.Fatal(err)
		}
		for i, j := range a.ServerOf {
			if p.Servers[j].ID != "s-green" {
				t.Errorf("app %d placed on %s, want s-green", i, p.Servers[j].ID)
			}
		}
	}
}

func TestLatencyAwareStaysLocal(t *testing.T) {
	p := buildFixture(t, 3, 30)
	a, err := NewExactSolver().Solve(p, LatencyAware{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range a.ServerOf {
		if p.Servers[j].ID != "s-dirty" {
			t.Errorf("app %d placed on %s, latency-aware should stay local", i, p.Servers[j].ID)
		}
	}
}

func TestSLOFiltersFarServers(t *testing.T) {
	// With a 30ms SLO the 18ms far server (intensity 20) is feasible and
	// carbon-optimal; with 10ms it must not be used.
	loose := buildFixture(t, 2, 30)
	a, err := NewExactSolver().Solve(loose, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Servers[a.ServerOf[0]].ID != "s-far" {
		t.Errorf("loose SLO: placed on %s, want s-far", loose.Servers[a.ServerOf[0]].ID)
	}

	tight := buildFixture(t, 2, 10)
	a, err = NewExactSolver().Solve(tight, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range a.ServerOf {
		if tight.LatencyMs[0][j] > 10 {
			t.Errorf("tight SLO violated: latency %v", tight.LatencyMs[0][j])
		}
	}
}

func TestCapacityForcesSpill(t *testing.T) {
	// The green server fits only 7 apps (7 x 80 milli + ... ResNet50 on
	// A2 = 8ms x 10rps = 80 milli occupancy; 1000/80 = 12. GPU memory:
	// 135MB x N <= 16384 -> 121. So occupancy binds at 12 apps.
	// Give 15 apps: at least 3 must spill to the dirty server (far is
	// SLO-infeasible).
	p := buildFixture(t, 15, 10)
	for name, solver := range map[string]Solver{"exact": NewExactSolver(), "heuristic": NewHeuristicSolver()} {
		a, err := solveNew(solver, p, CarbonAware{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.CheckFeasible(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Unplaced) > 0 {
			t.Fatalf("%s: %d apps unplaced, capacity suffices across servers", name, len(a.Unplaced))
		}
		green, dirty := 0, 0
		for _, j := range a.ServerOf {
			switch p.Servers[j].ID {
			case "s-green":
				green++
			case "s-dirty":
				dirty++
			}
		}
		if green != 12 {
			t.Errorf("%s: green server got %d apps, want 12 (occupancy bound)", name, green)
		}
		if dirty != 3 {
			t.Errorf("%s: dirty server got %d apps, want 3", name, dirty)
		}
	}
}

func TestActivationCostAvoidsWakingServer(t *testing.T) {
	// Two servers in the same green zone: one on, one off. A single
	// small app should reuse the powered-on server rather than waking
	// the second (activation adds B_j x I_j).
	capacity := cluster.NewResources(1000, 16384, 16384, 1000)
	servers := []Server{
		{ID: "on", DC: "local", Device: energy.A2.Name, Intensity: 100, BasePowerW: 100, PoweredOn: true, Free: capacity},
		{ID: "off", DC: "local", Device: energy.A2.Name, Intensity: 100, BasePowerW: 100, PoweredOn: false, Free: capacity},
	}
	apps := []App{{ID: "a", Model: energy.ModelResNet50, Source: "local", SLOms: 20, RatePerSec: 5}}
	p, err := Build(apps, servers, fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, solver := range map[string]Solver{"exact": NewExactSolver(), "heuristic": NewHeuristicSolver()} {
		a, err := solveNew(solver, p, CarbonAware{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Servers[a.ServerOf[0]].ID != "on" {
			t.Errorf("%s: woke the off server needlessly", name)
		}
		if a.PowerOn[1] {
			t.Errorf("%s: off server marked powered on", name)
		}
	}
}

func TestActivationWorthItForBigSavings(t *testing.T) {
	// Dirty powered-on server vs clean powered-off server: with enough
	// load, waking the clean server wins. One heavy app: dynamic power
	// 0.45W/rps... use high rate to dominate base power.
	capacity := cluster.NewResources(1000, 16384, 16384, 1000)
	servers := []Server{
		{ID: "dirty-on", DC: "local", Device: energy.A2.Name, Intensity: 800, BasePowerW: 9, PoweredOn: true, Free: capacity},
		{ID: "clean-off", DC: "local", Device: energy.A2.Name, Intensity: 20, BasePowerW: 9, PoweredOn: false, Free: capacity},
	}
	apps := []App{{ID: "a", Model: energy.ModelYOLOv4, Source: "local", SLOms: 20, RatePerSec: 30}}
	p, err := Build(apps, servers, fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewExactSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Servers[a.ServerOf[0]].ID != "clean-off" {
		t.Error("solver did not wake the clean server despite large savings")
	}
	if !a.PowerOn[1] {
		t.Error("clean server not marked powered on")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	p := buildFixture(t, 2, 10)
	a, err := NewExactSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Evaluate(a)
	if m.Placed != 2 || m.Unplaced != 0 {
		t.Errorf("placed/unplaced = %d/%d", m.Placed, m.Unplaced)
	}
	// Both on s-green at 8ms.
	if math.Abs(m.MeanLatencyMs-8) > 1e-9 || math.Abs(m.MaxLatencyMs-8) > 1e-9 {
		t.Errorf("latency metrics = %v/%v, want 8/8", m.MeanLatencyMs, m.MaxLatencyMs)
	}
	wantCarbon := 2 * p.PowerW[0][1] / 1000 * 50
	if math.Abs(m.CarbonGPerHour-wantCarbon) > 1e-9 {
		t.Errorf("carbon = %v, want %v", m.CarbonGPerHour, wantCarbon)
	}
	if m.ActivationGPerHour != 0 {
		t.Errorf("activation = %v, want 0 (all servers already on)", m.ActivationGPerHour)
	}
}

func TestPolicyOrderingOnCarbon(t *testing.T) {
	// The defining result: CarbonEdge <= Intensity-aware <= Latency-
	// aware on carbon for this fixture (energy-aware may tie since
	// hardware is homogeneous).
	p := buildFixture(t, 10, 10)
	carbonOf := func(pol Policy) float64 {
		a, err := NewExactSolver().Solve(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		return p.Evaluate(a).CarbonGPerHour
	}
	ce := carbonOf(CarbonAware{})
	ia := carbonOf(IntensityAware{})
	la := carbonOf(LatencyAware{})
	if ce > ia+1e-9 {
		t.Errorf("CarbonEdge (%v) worse than Intensity-aware (%v)", ce, ia)
	}
	if ia > la+1e-9 {
		t.Errorf("Intensity-aware (%v) worse than Latency-aware (%v)", ia, la)
	}
	if ce >= la {
		t.Errorf("CarbonEdge (%v) shows no saving vs Latency-aware (%v)", ce, la)
	}
}

func TestBlendEndpoints(t *testing.T) {
	p := buildFixture(t, 6, 10)
	solve := func(pol Policy) Metrics {
		a, err := NewExactSolver().Solve(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		return p.Evaluate(a)
	}
	carbon0 := solve(NewCarbonEnergyBlend(0))
	pure := solve(CarbonAware{})
	if math.Abs(carbon0.CarbonGPerHour-pure.CarbonGPerHour) > 1e-6 {
		t.Errorf("alpha=0 carbon %v != CarbonAware %v", carbon0.CarbonGPerHour, pure.CarbonGPerHour)
	}
	blend1 := solve(NewCarbonEnergyBlend(1))
	energyAware := solve(EnergyAware{})
	if blend1.EnergyWAvg > energyAware.EnergyWAvg+1e-6 {
		t.Errorf("alpha=1 energy %v worse than Energy-aware %v", blend1.EnergyWAvg, energyAware.EnergyWAvg)
	}
}

func TestBlendMonotoneTradeoff(t *testing.T) {
	// Carbon should not decrease as alpha rises (weight shifts to
	// energy); energy should not increase.
	p := heterogeneousFixture(t, 8)
	prevCarbon, prevEnergy := -1.0, math.Inf(1)
	for _, alpha := range []float64{0, 0.5, 1} {
		a, err := NewExactSolver().Solve(p, NewCarbonEnergyBlend(alpha))
		if err != nil {
			t.Fatal(err)
		}
		m := p.Evaluate(a)
		if m.CarbonGPerHour < prevCarbon-1e-6 {
			t.Errorf("alpha=%v: carbon %v decreased vs smaller alpha %v", alpha, m.CarbonGPerHour, prevCarbon)
		}
		if m.EnergyWAvg > prevEnergy+1e-6 {
			t.Errorf("alpha=%v: energy %v increased vs smaller alpha %v", alpha, m.EnergyWAvg, prevEnergy)
		}
		prevCarbon, prevEnergy = m.CarbonGPerHour, m.EnergyWAvg
	}
}

// heterogeneousFixture: efficient-but-dirty Orin zone vs fast-but-hungry
// GTX in a green zone, creating a real carbon-energy trade-off.
func heterogeneousFixture(t *testing.T, nApps int) *Problem {
	t.Helper()
	servers := []Server{
		{ID: "orin-dirty", DC: "local", Device: energy.OrinNano.Name, Intensity: 650, BasePowerW: 4, PoweredOn: true,
			Free: cluster.NewResources(1000, 8192, 8192, 1000)},
		{ID: "gtx-green", DC: "near", Device: energy.GTX1080.Name, Intensity: 30, BasePowerW: 38, PoweredOn: true,
			Free: cluster.NewResources(1000, 8192, 8192, 1000)},
	}
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{ID: fmt.Sprintf("a%d", i), Model: energy.ModelResNet50, Source: "local", SLOms: 25, RatePerSec: 4}
	}
	p, err := Build(apps, servers, fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHeterogeneousCarbonVsEnergy(t *testing.T) {
	// Figure 15's trade-off: carbon-aware prefers the green GTX zone at
	// an energy premium; energy-aware prefers the efficient Orin.
	p := heterogeneousFixture(t, 4)
	ce, err := NewExactSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := NewExactSolver().Solve(p, EnergyAware{})
	if err != nil {
		t.Fatal(err)
	}
	mce, mea := p.Evaluate(ce), p.Evaluate(ea)
	if mce.CarbonGPerHour >= mea.CarbonGPerHour {
		t.Errorf("carbon-aware carbon %v >= energy-aware %v", mce.CarbonGPerHour, mea.CarbonGPerHour)
	}
	if mce.EnergyWAvg <= mea.EnergyWAvg {
		t.Errorf("carbon-aware energy %v <= energy-aware %v (no trade-off)", mce.EnergyWAvg, mea.EnergyWAvg)
	}
}

func TestUnplacedReported(t *testing.T) {
	apps := fixtureApps(2, 1) // 1ms SLO: nothing feasible (local is 2ms)
	p, err := Build(apps, fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, solver := range map[string]Solver{"exact": NewExactSolver(), "heuristic": NewHeuristicSolver()} {
		a, err := solveNew(solver, p, CarbonAware{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Unplaced) != 2 {
			t.Errorf("%s: unplaced = %v, want both apps", name, a.Unplaced)
		}
		for _, j := range a.ServerOf {
			if j != -1 {
				t.Errorf("%s: infeasible app got server %d", name, j)
			}
		}
	}
}

func TestExactMatchesHeuristicOnRandomInstances(t *testing.T) {
	// Property: on random small instances, the heuristic's cost is never
	// better than the exact optimum (sanity) and usually close.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		nApps := 2 + rng.Intn(4)
		nSrv := 2 + rng.Intn(3)
		servers := make([]Server, nSrv)
		for j := range servers {
			servers[j] = Server{
				ID: fmt.Sprintf("s%d", j), DC: []string{"local", "near", "far"}[j%3],
				Device:     energy.A2.Name,
				Intensity:  20 + rng.Float64()*700,
				BasePowerW: 9, PoweredOn: rng.Intn(2) == 0,
				Free: cluster.NewResources(500+rng.Float64()*500, 16384, 16384, 1000),
			}
		}
		apps := make([]App, nApps)
		for i := range apps {
			apps[i] = App{
				ID: fmt.Sprintf("a%d", i), Model: energy.ModelResNet50,
				Source: []string{"local", "near", "far"}[rng.Intn(3)],
				SLOms:  10 + rng.Float64()*30, RatePerSec: 1 + rng.Float64()*10,
			}
		}
		p, err := Build(apps, servers, fixtureRTT, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewExactSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		heur, err := NewHeuristicSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckFeasible(exact); err != nil {
			t.Fatalf("trial %d exact infeasible: %v", trial, err)
		}
		if err := p.CheckFeasible(heur); err != nil {
			t.Fatalf("trial %d heuristic infeasible: %v", trial, err)
		}
		me, mh := p.Evaluate(exact), p.Evaluate(heur)
		if me.Placed != mh.Placed {
			continue // different unplaced sets make costs incomparable
		}
		if mh.CarbonGPerHour < me.CarbonGPerHour-1e-6 {
			t.Errorf("trial %d: heuristic (%v) beat exact optimum (%v)", trial, mh.CarbonGPerHour, me.CarbonGPerHour)
		}
	}
}

func TestPlacerBackendRouting(t *testing.T) {
	small := buildFixture(t, 2, 20)
	pl := NewPlacer(CarbonAware{})
	res, err := pl.Place(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "exact" {
		t.Errorf("small instance routed to %s, want exact", res.Backend)
	}

	big := buildFixture(t, 120, 20)
	res, err = pl.Place(big)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "heuristic" {
		t.Errorf("large instance routed to %s, want heuristic", res.Backend)
	}
	if res.SolveTime <= 0 {
		t.Error("solve time not recorded")
	}

	// The threshold is inclusive. Apps with a 10 ms SLO reach two servers
	// and apps with 20 ms all three; at 1 req/s every app fits on one
	// server, so neither batch can fall back.
	edge := func(n10, n20 int) *Problem {
		apps := fixtureApps(n10+n20, 10)
		for i := range apps {
			apps[i].RatePerSec = 1
			if i >= n10 {
				apps[i].SLOms = 20
			}
		}
		p, err := Build(apps, fixtureServers(), fixtureRTT, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		p     *Problem
		pairs int
		want  string
	}{
		{edge(110, 0), ExactPairLimit, "exact"},
		{edge(109, 1), ExactPairLimit + 1, "heuristic"},
	} {
		pairs := 0
		for i := range tc.p.Apps {
			pairs += len(tc.p.FeasibleServers(i))
		}
		if pairs != tc.pairs {
			t.Fatalf("fixture has %d feasible pairs, want %d", pairs, tc.pairs)
		}
		res, err := pl.Place(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != tc.want {
			t.Errorf("%d feasible pairs routed to %s, want %s", pairs, res.Backend, tc.want)
		}
	}
}

func TestPlacerValidation(t *testing.T) {
	pl := NewPlacer(nil)
	if _, err := pl.Place(&Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
}

func TestCheckFeasibleCatchesViolations(t *testing.T) {
	p := buildFixture(t, 2, 10)
	good, err := NewExactSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	// SLO violation: assign to the far server.
	bad := &Assignment{ServerOf: []int{2, 2}, PowerOn: []bool{true, true, true}}
	if err := p.CheckFeasible(bad); err == nil {
		t.Error("SLO violation not caught")
	}
	// Powered-off assignment.
	bad2 := &Assignment{ServerOf: append([]int(nil), good.ServerOf...), PowerOn: []bool{false, false, false}}
	if err := p.CheckFeasible(bad2); err == nil {
		t.Error("powered-off assignment not caught")
	}
	// Shape mismatch.
	if err := p.CheckFeasible(&Assignment{ServerOf: []int{0}}); err == nil {
		t.Error("shape mismatch not caught")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"CarbonEdge":      CarbonAware{},
		"Latency-aware":   LatencyAware{},
		"Energy-aware":    EnergyAware{},
		"Intensity-aware": IntensityAware{},
	}
	for want, pol := range names {
		if got := pol.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	if got := NewCarbonEnergyBlend(0.25).Name(); got != "CarbonEdge(alpha=0.25)" {
		t.Errorf("blend name = %q", got)
	}
}

// failingSolver sleeps, then rejects every instance, forcing the placer's
// heuristic fallback.
type failingSolver struct{ delay time.Duration }

func (s failingSolver) SolveInto(dst *Assignment, p *Problem, pol Policy, warm *Assignment) error {
	time.Sleep(s.delay)
	return fmt.Errorf("stub: no incumbent")
}

func TestPlacerFallbackTiming(t *testing.T) {
	// On heuristic fallback, SolveTime must cover only the fallback
	// solver's own run; the failed exact attempt is reported separately
	// via TotalSolveTime.
	p := buildFixture(t, 2, 20)
	delay := 50 * time.Millisecond
	pl := NewPlacer(CarbonAware{})
	pl.exact = failingSolver{delay: delay}
	res, err := pl.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "heuristic-fallback" {
		t.Fatalf("backend = %q, want heuristic-fallback", res.Backend)
	}
	if res.SolveTime >= delay {
		t.Errorf("SolveTime %v includes the failed exact attempt (%v stub delay)", res.SolveTime, delay)
	}
	if res.TotalSolveTime < delay {
		t.Errorf("TotalSolveTime %v should include the failed exact attempt (%v)", res.TotalSolveTime, delay)
	}
	if res.TotalSolveTime < res.SolveTime {
		t.Errorf("TotalSolveTime %v < SolveTime %v", res.TotalSolveTime, res.SolveTime)
	}
}

func TestPlacerNoFallbackTimesMatch(t *testing.T) {
	res, err := NewPlacer(CarbonAware{}).Place(buildFixture(t, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "exact" {
		t.Fatalf("backend = %q, want exact", res.Backend)
	}
	if res.TotalSolveTime < res.SolveTime {
		t.Errorf("TotalSolveTime %v < SolveTime %v without fallback", res.TotalSolveTime, res.SolveTime)
	}
}

// pairLimitBatch is a workspace view at exactly ExactPairLimit feasible
// (app, server) pairs: 44 apps of two models at four rates, so eight
// (source, SLO, model, rate) classes, on five servers of one site whose
// capacity the batch fills to about 40 %.
func pairLimitBatch(t *testing.T, seed int64) *Problem {
	t.Helper()
	rates := []float64{4, 6, 9, 13}
	return limitBatch(t, seed, func(_ int, rng *rand.Rand) float64 { return rates[rng.Intn(len(rates))] })
}

// limitBatch is pairLimitBatch's view with app i's rate drawn by rate.
func limitBatch(t *testing.T, seed int64, rate func(i int, rng *rand.Rand) float64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	servers := make([]Server, 5)
	for j := range servers {
		d := []energy.Device{energy.A2, energy.GTX1080}[j%2]
		servers[j] = Server{
			ID: fmt.Sprintf("s%d", j), DC: "site", Device: d.Name,
			Intensity: 50 + 700*rng.Float64(), BasePowerW: d.IdleW, PoweredOn: j < 3,
			Free: cluster.NewResources(1000, 8192, float64(d.MemMB), 1e6),
		}
	}
	models := []string{energy.ModelResNet50, energy.ModelEfficientNetB0}
	apps := make([]App, 44)
	for i := range apps {
		apps[i] = App{ID: fmt.Sprintf("a%02d", i), Model: models[rng.Intn(2)], Source: "site", SLOms: 30,
			RatePerSec: rate(i, rng)}
	}
	ws, err := NewWorkspace(servers, func(string, string) float64 { return 2 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ws.Problem(apps)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i := range p.Apps {
		pairs += len(p.FeasibleServers(i))
	}
	if pairs != ExactPairLimit {
		t.Fatalf("seed %d: %d feasible pairs, want %d", seed, pairs, ExactPairLimit)
	}
	return p
}

// TestExactNodeBudget: a batch at the pair limit whose branch and bound
// needs more than the node budget (1 106 nodes at 0.1 % gap with no
// budget) comes back from the exact backend with the incumbent it holds
// when the budget runs out, every app placed, and the same assignment on
// every solve: the answer depends on the batch alone, not on how fast the
// host is.
func TestExactNodeBudget(t *testing.T) {
	p := pairLimitBatch(t, 9)
	var first *Assignment
	for k := 0; k < 2; k++ {
		start := time.Now()
		res, err := NewPlacer(CarbonAware{}).Place(p)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != "exact" || res.BnBNodes != exactNodeBudget || res.Metrics.Unplaced != 0 {
			t.Fatalf("solve %d: %s backend after %d nodes with %d unplaced, want exact after the %d-node budget with none",
				k, res.Backend, res.BnBNodes, res.Metrics.Unplaced, exactNodeBudget)
		}
		t.Logf("solve %d: %d classes, %d nodes, %v", k, len(p.classRep), res.BnBNodes, took)
		if first == nil {
			first = res.Assignment
		} else if !reflect.DeepEqual(res.Assignment, first) {
			t.Fatalf("the second solve returned %+v, the first %+v", res.Assignment, first)
		}
	}
}

// TestDistinctBatchRoutesHeuristic: a batch at ExactPairLimit whose 44
// apps run at 44 distinct rates (4, 4.2, … 12.6 req/s) is 44 classes and
// would build 220 integers, where branch and bound spent 13.6–20.9 s; its
// certificate declines, so it goes to the heuristic, every app placed,
// in well under a second.
func TestDistinctBatchRoutesHeuristic(t *testing.T) {
	for _, seed := range []int64{9, 10, 11} {
		p := limitBatch(t, seed, func(i int, _ *rand.Rand) float64 { return 4 + 0.2*float64(i) })
		if len(p.classRep) != 44 {
			t.Fatalf("seed %d: %d classes, want 44", seed, len(p.classRep))
		}
		start := time.Now()
		res, err := NewPlacer(CarbonAware{}).Place(p)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != "heuristic" || res.Metrics.Unplaced != 0 || took >= time.Second {
			t.Errorf("seed %d: %s backend in %v with %d unplaced, want the heuristic in under 1 s with none",
				seed, res.Backend, took, res.Metrics.Unplaced)
		}
	}
}

// TestExactIntegerLimitRouting: over pair-limit batches whose rates take
// 3 to 8 values (up to 16 classes with the two models), Place sends a batch to the exact backend exactly when its
// MILP has at most ExactIntegerLimit integers or its certificate closes
// it, and the batches the certificate declines fall at the limit, below
// it and above it. (TestPlacerBackendRouting's 220-pair dense batch is
// one the certificate closes above the limit.)
func TestExactIntegerLimitRouting(t *testing.T) {
	seen := map[string]bool{}
	for k := 3; k <= 8; k++ {
		for seed := int64(1); seed <= 3; seed++ {
			p := limitBatch(t, seed, func(i int, _ *rand.Rand) float64 { return 4 + 0.2*float64(i%k) })
			md, err := buildMILP(p, CarbonAware{})
			if err != nil {
				t.Fatal(err)
			}
			ints, certified := len(md.pairs), certify(p, CarbonAware{}) != nil
			want := "heuristic"
			if ints <= ExactIntegerLimit || certified {
				want = "exact"
			}
			res, err := NewPlacer(CarbonAware{}).Place(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != want {
				t.Errorf("k %d seed %d: %d integers (certified %v) routed to %s, want %s", k, seed, ints, certified, res.Backend, want)
			}
			if !certified {
				switch {
				case ints < ExactIntegerLimit:
					seen["below"] = true
				case ints == ExactIntegerLimit:
					seen["at"] = true
				default:
					seen["above"] = true
				}
			}
		}
	}
	for _, side := range []string{"below", "at", "above"} {
		if !seen[side] {
			t.Errorf("no declined batch %s the limit", side)
		}
	}
}

// TestExactModelIsPerClass: under every policy, the Eq. 8 blend
// included, a workspace view's MILP has one integer per feasible (class,
// server) pair: 40 for the pair-limit batch's 44 apps in 8 classes, not
// one per feasible (app, server) pair (220).
func TestExactModelIsPerClass(t *testing.T) {
	p := pairLimitBatch(t, 9)
	if len(p.classRep) != 8 {
		t.Fatalf("fixture has %d classes, want 8", len(p.classRep))
	}
	for _, pol := range allPolicies() {
		md, err := buildMILP(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(md.pairs); got != 40 {
			t.Errorf("%s: %d integer pair variables, want 40", pol.Name(), got)
		}
	}
}
