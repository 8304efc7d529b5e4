package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
)

// wsInstance is a random instance in component form so the same inputs
// can feed both builders.
type wsInstance struct {
	apps    []App
	servers []Server
	rtt     RTTFunc
}

// randomWSInstance mirrors randomInstance's stress geometry (ring of
// cities, mixed devices, power states, and SLOs) but returns the raw
// components instead of a built problem.
func randomWSInstance(rng *rand.Rand, nApps, nServers int) wsInstance {
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
	return wsInstance{apps: apps, servers: servers, rtt: rtt}
}

func allPolicies() []Policy {
	return []Policy{CarbonAware{}, LatencyAware{}, EnergyAware{}, IntensityAware{}, NewCarbonEnergyBlend(0.5)}
}

// TestWorkspaceProblemMatchesBuild is the one-shot equivalence property:
// the view's candidate lists equal Build's (Stamp's, read from the dense
// cells) row for row, and for every policy and both backends, solving a
// workspace-built problem yields assignments and metrics byte-identical
// to solving the dense Build problem over the same inputs.
func TestWorkspaceProblemMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		inst := randomWSInstance(rng, 1+rng.Intn(8), 2+rng.Intn(8))
		dense, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := ws.Problem(inst.apps)
		if err != nil {
			t.Fatal(err)
		}
		// Candidate cells must carry the exact dense coefficients.
		for i := range sparse.Apps {
			if got, want := sparse.Candidates[i], dense.Candidates[i]; !slices.Equal(got, want) {
				t.Fatalf("trial %d app %d: candidates %v != Build's %v", trial, i, got, want)
			}
			for _, j := range sparse.Candidates[i] {
				if !dense.Compatible[i][j] {
					t.Fatalf("trial %d: candidate (%d,%d) incompatible in dense problem", trial, i, j)
				}
				if sparse.Demand[i][j] != dense.Demand[i][j] ||
					sparse.PowerW[i][j] != dense.PowerW[i][j] ||
					sparse.LatencyMs[i][j] != dense.LatencyMs[i][j] {
					t.Fatalf("trial %d: coefficients diverge at (%d,%d)", trial, i, j)
				}
			}
			if got, want := sparse.FeasibleServers(i), dense.FeasibleServers(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d app %d: feasible set %v != dense %v", trial, i, got, want)
			}
		}
		for _, pol := range allPolicies() {
			for name, mk := range map[string]func() Solver{
				"heuristic": func() Solver { return NewHeuristicSolver() },
				"exact":     func() Solver { return NewExactSolver() },
			} {
				aDense, err := solveNew(mk(), dense, pol, nil)
				if err != nil {
					t.Fatalf("trial %d %s/%s dense: %v", trial, pol.Name(), name, err)
				}
				aWS, err := solveNew(mk(), sparse, pol, nil)
				if err != nil {
					t.Fatalf("trial %d %s/%s ws: %v", trial, pol.Name(), name, err)
				}
				if !reflect.DeepEqual(aDense, aWS) {
					t.Fatalf("trial %d %s/%s: workspace assignment diverged:\ndense: %+v\nws:    %+v",
						trial, pol.Name(), name, aDense, aWS)
				}
				if md, mw := dense.Evaluate(aDense), sparse.Evaluate(aWS); md != mw {
					t.Fatalf("trial %d %s/%s: metrics diverged: %+v != %+v", trial, pol.Name(), name, md, mw)
				}
			}
		}
	}
}

// TestWorkspaceIncrementalEquivalence is the multi-epoch property from
// the issue: N epochs of workspace-incremental placement — commit,
// intensity updates, re-solve — produce assignments and metrics
// byte-identical to rebuilding the dense problem from scratch each epoch,
// across the full {dense, shortlist} × {sweep, dirty-queue} × {cold, warm}
// matrix. The dense sweep (full per-app re-scan, live policy costs) is the
// reference; the flattened search (memoized cost rows + dirty-app work
// queue) must reproduce it bit for bit on both problem forms. Solvers
// persist across epochs so the flattened path's generation-keyed memo is
// exercised against a workspace view that is reassembled in place.
func TestWorkspaceIncrementalEquivalence(t *testing.T) {
	for _, pol := range allPolicies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			inst := randomWSInstance(rng, 0, 10)
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The rebuild path tracks server state by hand.
			servers := append([]Server(nil), inst.servers...)
			type variant struct {
				name   string
				sparse bool
				solve  func(p *Problem, pol Policy, warm *Assignment) (*Assignment, error)
			}
			// Each flat variant keeps one solver across epochs.
			flat := func() func(*Problem, Policy, *Assignment) (*Assignment, error) {
				s := NewHeuristicSolver()
				return func(p *Problem, pol Policy, warm *Assignment) (*Assignment, error) {
					return solveNew(s, p, pol, warm)
				}
			}
			ref := variant{"dense/sweep", false, sweepSolve}
			variants := []variant{
				{"dense/flat", false, flat()},
				{"ws/sweep", true, sweepSolve},
				{"ws/flat", true, flat()},
			}
			const epochs = 6
			for epoch := 0; epoch < epochs; epoch++ {
				// Carbon clock tick: fresh intensities on both paths.
				for j := range servers {
					ci := 10 + rng.Float64()*800
					servers[j].Intensity = ci
					ws.UpdateIntensity(j, ci)
				}
				batch := randomWSInstance(rng, 2+rng.Intn(4), 0).apps
				for i := range batch {
					batch[i].ID = fmt.Sprintf("e%d-%s", epoch, batch[i].ID)
				}

				dense, err := Build(batch, servers, inst.rtt, nil)
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := ws.Problem(batch)
				if err != nil {
					t.Fatal(err)
				}
				problemOf := func(v variant) *Problem {
					if v.sparse {
						return sparse
					}
					return dense
				}

				aRef, err := ref.solve(problemOf(ref), pol, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					got, err := v.solve(problemOf(v), pol, nil)
					if err != nil {
						t.Fatalf("epoch %d %s cold: %v", epoch, v.name, err)
					}
					if !reflect.DeepEqual(aRef, got) {
						t.Fatalf("epoch %d: %s cold assignment diverged from dense sweep:\nref: %+v\ngot: %+v", epoch, v.name, aRef, got)
					}
				}
				if md, mw := dense.Evaluate(aRef), sparse.Evaluate(aRef); md != mw {
					t.Fatalf("epoch %d: metrics diverged: %+v != %+v", epoch, md, mw)
				}

				// Warm starts must agree across the same matrix (this
				// re-solves the identical view back to back, exercising the
				// flat path's memo hit). A converged solution is a fixpoint,
				// so seed from a rotated copy instead: every entry points
				// one server over — some stale, some feasible — which makes
				// the warm local search actually move things.
				seed := &Assignment{ServerOf: append([]int(nil), aRef.ServerOf...)}
				for i, j := range seed.ServerOf {
					if j >= 0 {
						seed.ServerOf[i] = (j + 1) % len(servers)
					}
				}
				wRef, err := ref.solve(problemOf(ref), pol, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					got, err := v.solve(problemOf(v), pol, seed)
					if err != nil {
						t.Fatalf("epoch %d %s warm: %v", epoch, v.name, err)
					}
					if !reflect.DeepEqual(wRef, got) {
						t.Fatalf("epoch %d: %s warm assignment diverged from dense sweep:\nref: %+v\ngot: %+v", epoch, v.name, wRef, got)
					}
				}

				// Commit on both paths.
				if err := ws.CommitAssignment(sparse, aRef); err != nil {
					t.Fatal(err)
				}
				for i, j := range aRef.ServerOf {
					if j < 0 {
						continue
					}
					servers[j].Free = servers[j].Free.Sub(dense.Demand[i][j])
					servers[j].PoweredOn = true
				}
				for j, srv := range servers {
					got := ws.Server(j)
					if got.Free != srv.Free || got.PoweredOn != srv.PoweredOn {
						t.Fatalf("epoch %d: server %d state diverged: ws %+v vs rebuild %+v", epoch, j, got, srv)
					}
				}
			}
		})
	}
}

// TestBlendNormalizationTracksReusedView pins the fix for a staleness
// bug: CarbonEnergyBlend caches its min-max normalization ranges per
// Problem, and a Workspace reassembles one Problem value in place every
// batch. Solving only workspace views back to back — the engine's steady
// state, where the pointer never changes between solves — must still
// recompute the ranges whenever the view's contents change.
func TestBlendNormalizationTracksReusedView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := randomWSInstance(rng, 0, 10)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	servers := append([]Server(nil), inst.servers...)
	solver := NewHeuristicSolver()
	reused := NewCarbonEnergyBlend(0.5) // sees only &ws.view, epoch after epoch
	for epoch := 0; epoch < 6; epoch++ {
		for j := range servers {
			ci := 10 + rng.Float64()*800
			servers[j].Intensity = ci
			ws.UpdateIntensity(j, ci)
		}
		batch := randomWSInstance(rng, 3+rng.Intn(3), 0).apps
		for i := range batch {
			batch[i].ID = fmt.Sprintf("e%d-%s", epoch, batch[i].ID)
		}

		sparse, err := ws.Problem(batch)
		if err != nil {
			t.Fatal(err)
		}
		// Solving primes (or wrongly skips re-priming) the reused blend's
		// cached ranges, exactly like the engine's per-epoch solve.
		if _, err := solver.Solve(sparse, reused); err != nil {
			t.Fatal(err)
		}
		// A fresh blend computes the ranges from this epoch's contents;
		// the reused one must agree on every feasible pair cost.
		fresh := NewCarbonEnergyBlend(0.5)
		for i := range sparse.Apps {
			for _, j := range sparse.Candidates[i] {
				if !sparse.Feasible(i, j) {
					continue
				}
				if got, want := reused.PairCost(sparse, i, j), fresh.PairCost(sparse, i, j); got != want {
					t.Fatalf("epoch %d: stale normalization on reused view: PairCost(%d,%d) = %v, fresh blend says %v", epoch, i, j, got, want)
				}
			}
		}
	}
}

func TestWorkspaceCommitReleaseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomWSInstance(rng, 5, 6)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(ws.servers)
	p, err := ws.Problem(inst.apps)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewHeuristicSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.CommitAssignment(p, a); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for i, j := range a.ServerOf {
		if j < 0 {
			continue
		}
		placed++
		if got := ws.Server(j).Free; got == before[j].Free {
			t.Fatalf("server %d free capacity unchanged after commit", j)
		}
		if err := ws.ReleaseApp(p.Apps[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed; fixture too tight")
	}
	for j := range before {
		got := ws.Server(j).Free
		for _, k := range cluster.ResourceKinds() {
			if math.Abs(got[k]-before[j].Free[k]) > 1e-6 {
				t.Fatalf("server %d free %v != original %v after releasing all apps", j, got, before[j].Free)
			}
		}
	}
	if err := ws.ReleaseApp("no-such-app"); err == nil {
		t.Fatal("releasing unknown app succeeded")
	}
	// Double commit of the same app ID must be rejected.
	if err := ws.CommitAssignment(p, a); err != nil {
		t.Fatal(err)
	}
	if err := ws.CommitAssignment(p, a); err == nil {
		t.Fatal("double commit accepted")
	}
}

func TestWorkspaceAddServersExtendsShortlists(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := randomWSInstance(rng, 4, 4)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the shortlists at the small size.
	if _, err := ws.Problem(inst.apps); err != nil {
		t.Fatal(err)
	}
	more := randomWSInstance(rng, 0, 6).servers
	for j := range more {
		more[j].ID = fmt.Sprintf("added-%d", j)
	}
	if err := ws.AddServers(more...); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddServers(Server{ID: inst.servers[0].ID}); err == nil {
		t.Fatal("duplicate server ID accepted")
	}
	all := slices.Clone(ws.servers)
	if len(all) != 10 {
		t.Fatalf("server count %d, want 10", len(all))
	}
	dense, err := Build(inst.apps, all, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := ws.Problem(inst.apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range allPolicies() {
		aDense, err := NewHeuristicSolver().Solve(dense, pol)
		if err != nil {
			t.Fatal(err)
		}
		aWS, err := NewHeuristicSolver().Solve(sparse, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aDense, aWS) {
			t.Fatalf("%s: post-AddServers assignment diverged", pol.Name())
		}
	}
}

func TestWorkspaceCandidateStats(t *testing.T) {
	ws, err := NewWorkspace(fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ws.Problem(fixtureApps(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms SLO from "local": s-far (18 ms) is out of every shortlist.
	min, mean, max := sp.CandidateStats()
	if min != 2 || max != 2 || mean != 2 {
		t.Fatalf("shortlist stats = %d/%.1f/%d, want 2/2.0/2", min, mean, max)
	}
	for i := range sp.Apps {
		for _, j := range sp.Candidates[i] {
			if sp.Servers[j].ID == "s-far" {
				t.Fatal("latency-infeasible server in shortlist")
			}
		}
	}
}

func TestWorkspaceRejectsBadInput(t *testing.T) {
	if _, err := NewWorkspace(fixtureServers(), nil, nil); err == nil {
		t.Fatal("nil RTT accepted")
	}
	dup := append(fixtureServers(), fixtureServers()[0])
	if _, err := NewWorkspace(dup, fixtureRTT, nil); err == nil {
		t.Fatal("duplicate server IDs accepted")
	}
	ws, err := NewWorkspace(fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A NaN rate gives NaN demands, and Fits passes every demand against
	// a NaN free capacity: one committed NaN app would let a server take
	// any load. +Inf is no rate either.
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		apps := fixtureApps(1, 20)
		apps[0].RatePerSec = rate
		if _, err := ws.Problem(apps); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
}

// TestHeuristicWarmStartIdempotent: re-solving from a converged solution
// must return that solution unchanged — a warm start at a local optimum
// is a fixpoint of the local search.
func TestHeuristicWarmStartIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		inst := randomWSInstance(rng, 2+rng.Intn(6), 3+rng.Intn(5))
		p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		solver := NewHeuristicSolver()
		cold, err := solver.Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := solveNew(solver, p, CarbonAware{}, cold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("trial %d: warm re-solve moved a converged solution:\ncold: %+v\nwarm: %+v", trial, cold, warm)
		}
		if err := p.CheckFeasible(warm); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExactWarmStartMatchesOptimum: warm-starting the MILP with any
// assignment never changes the optimal objective, and a warm start from
// the heuristic's solution still proves optimality.
func TestExactWarmStartMatchesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		inst := randomWSInstance(rng, 1+rng.Intn(5), 2+rng.Intn(5))
		p, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewExactSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		heur, err := NewHeuristicSolver().Solve(p, CarbonAware{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := solveNew(NewExactSolver(), p, CarbonAware{}, heur)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckFeasible(warm); err != nil {
			t.Fatalf("trial %d: warm exact infeasible: %v", trial, err)
		}
		mc, mw := p.Evaluate(cold), p.Evaluate(warm)
		if mc.Placed == mw.Placed && math.Abs(mc.CarbonGPerHour-mw.CarbonGPerHour) > 1e-6 {
			t.Fatalf("trial %d: warm exact objective %.9f != cold %.9f", trial, mw.CarbonGPerHour, mc.CarbonGPerHour)
		}
	}
}

// TestWorkspacePlacerIntegration routes a workspace problem through the
// Placer and checks the solver stats read out for the /api/v1/placement
// surface.
func TestWorkspacePlacerIntegration(t *testing.T) {
	ws, err := NewWorkspace(fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ws.Problem(fixtureApps(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPlacer(CarbonAware{}).Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.CommitAssignment(p, res.Assignment); err != nil {
		t.Fatal(err)
	}
	st := res.Stats(p)
	if st.Backend != res.Backend || st.Apps != 3 || st.Servers != 3 {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.CandidatesMax != 2 || st.Placed != 3 {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.SolveMs < 0 || st.TotalSolveMs < st.SolveMs {
		t.Fatalf("timing stats mismatch: %+v", st)
	}
}

// TestWorkspaceMemoBounded feeds the workspace far more distinct app
// classes than the memo cap (unique rates — the long-running-service
// leak shape) and checks the tables stay bounded while solves keep
// working.
func TestWorkspaceMemoBounded(t *testing.T) {
	ws, err := NewWorkspace(fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		apps := make([]App, 2000)
		for i := range apps {
			apps[i] = App{
				ID:         fmt.Sprintf("b%d-%d", k, i),
				Model:      energy.ModelResNet50,
				Source:     "local",
				SLOms:      20,
				RatePerSec: 0.001 * float64(k*2000+i+1),
			}
		}
		p, err := ws.Problem(apps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewHeuristicSolver().Solve(p, CarbonAware{}); err != nil {
			t.Fatal(err)
		}
		// The third batch crosses the cap mid-stream: the tables reset
		// under a view that is still being assembled, and rows handed out
		// before the reset must stay intact.
		dense, err := Build(apps, slices.Clone(ws.servers), fixtureRTT, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range apps {
			if !reflect.DeepEqual(p.Demand[i], dense.Demand[i]) || !reflect.DeepEqual(p.PowerW[i], dense.PowerW[i]) ||
				!reflect.DeepEqual(p.LatencyMs[i], dense.LatencyMs[i]) || !reflect.DeepEqual(p.Compatible[i], dense.Compatible[i]) {
				t.Fatalf("batch %d app %d: view rows diverge from the dense build (memo sizes classes=%d cands=%d)",
					k, i, len(ws.classes), len(ws.cands))
			}
		}
	}
	if len(ws.classes) > maxMemoEntries || len(ws.cands) > maxMemoEntries || len(ws.latOK) > maxMemoEntries {
		t.Fatalf("memo tables exceed cap: classes=%d cands=%d latOK=%d (cap %d)",
			len(ws.classes), len(ws.cands), len(ws.latOK), maxMemoEntries)
	}
}

// TestWorkspaceChurnRoundsEquivalence drives one long-lived flat solver
// and one sweep solver through many warm re-solve rounds on a shared
// workspace — app churn every round, intensity ticks and power toggles
// now and then — and requires byte-identical assignments throughout.
// This is the engine's steady-state regime: one solver reused across
// batches, warm-seeded from the previous result, so it pins down that
// nothing a solve leaves in the solver's scratch leaks into the next.
func TestWorkspaceChurnRoundsEquivalence(t *testing.T) {
	for _, pol := range allPolicies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			const nApps, nServers = 40, 12
			inst := randomWSInstance(rng, nApps, nServers)
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			flat := &HeuristicSolver{SkipValidate: true}
			apps := append([]App(nil), inst.apps...)
			var prev *Assignment
			for round := 0; round < 25; round++ {
				for c := 0; c < 3; c++ {
					fresh := randomWSInstance(rng, 1, 0).apps[0]
					fresh.ID = fmt.Sprintf("churn-%02d-%d", round, c)
					apps[rng.Intn(nApps)] = fresh
				}
				switch {
				case round%5 == 4: // carbon clock tick
					for j := 0; j < nServers; j++ {
						ws.UpdateIntensity(j, 10+rng.Float64()*800)
					}
				case round%7 == 3: // operator toggles a server
					j := rng.Intn(nServers)
					srv := slices.Clone(ws.servers)[j]
					ws.SetServerState(j, srv.Free, !srv.PoweredOn)
				}
				sparse, err := ws.Problem(apps)
				if err != nil {
					t.Fatal(err)
				}
				aSweep, err := sweepSolve(sparse, pol, prev)
				if err != nil {
					t.Fatalf("round %d sweep: %v", round, err)
				}
				aFlat, err := solveNew(flat, sparse, pol, prev)
				if err != nil {
					t.Fatalf("round %d flat: %v", round, err)
				}
				if !reflect.DeepEqual(aSweep, aFlat) {
					t.Fatalf("round %d: flat diverged from sweep:\nsweep: %+v\nflat:  %+v",
						round, aSweep, aFlat)
				}
				prev = aFlat
			}
		})
	}
}

// classedWSInstance is randomWSInstance with the apps drawn from a small
// grid of (source, SLO, model, rate) values, so batches fall into a few
// shared classes the way simulator and CDN batches do.
func classedWSInstance(rng *rand.Rand, nApps, nServers int) wsInstance {
	inst := randomWSInstance(rng, nApps, nServers)
	slos := []float64{4, 8, 13}
	rates := []float64{2, 5}
	for i := range inst.apps {
		inst.apps[i].SLOms = slos[rng.Intn(len(slos))]
		inst.apps[i].RatePerSec = rates[rng.Intn(len(rates))]
	}
	return inst
}

// viewRows is a deep copy of a view's four matrices.
type viewRows struct {
	demand [][]cluster.Resources
	power  [][]float64
	lat    [][]float64
	compat [][]bool
}

func copyRows(p *Problem) viewRows {
	var v viewRows
	for i := range p.Apps {
		v.demand = append(v.demand, append([]cluster.Resources(nil), p.Demand[i]...))
		v.power = append(v.power, append([]float64(nil), p.PowerW[i]...))
		v.lat = append(v.lat, append([]float64(nil), p.LatencyMs[i]...))
		v.compat = append(v.compat, append([]bool(nil), p.Compatible[i]...))
	}
	return v
}

// prefixOf checks that the view's rows, cut to each saved row's width,
// are bit-identical to the saved copy (math.Float64bits, not ==, so a
// NaN or a signed zero would not slip through).
func (v viewRows) prefixOf(t *testing.T, when string, p *Problem) {
	t.Helper()
	for i := range v.demand {
		for j := range v.demand[i] {
			same := v.compat[i][j] == p.Compatible[i][j] &&
				math.Float64bits(v.power[i][j]) == math.Float64bits(p.PowerW[i][j]) &&
				math.Float64bits(v.lat[i][j]) == math.Float64bits(p.LatencyMs[i][j])
			for _, k := range cluster.ResourceKinds() {
				same = same && math.Float64bits(v.demand[i][j][k]) == math.Float64bits(p.Demand[i][j][k])
			}
			if !same {
				t.Fatalf("%s: cell (%d,%d) changed under the view", when, i, j)
			}
		}
	}
}

// TestWorkspaceViewSharesClassRows pins the view contract: rows are
// aliased per class, not copied per app, and the class stamp numbers the
// (source, SLO, model, rate) classes densely by first appearance.
func TestWorkspaceViewSharesClassRows(t *testing.T) {
	ws, err := NewWorkspace(fixtureServers(), fixtureRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := func(id, model, source string, slo, rate float64) App {
		return App{ID: id, Model: model, Source: source, SLOms: slo, RatePerSec: rate}
	}
	apps := []App{
		app("a0", energy.ModelResNet50, "local", 20, 5),
		app("a1", energy.ModelResNet50, "near", 20, 5),        // a0's (model, rate), other source
		app("a2", energy.ModelEfficientNetB0, "local", 20, 5), // a0's source, other model
		app("a3", energy.ModelResNet50, "local", 20, 7),       // a0's source and model, other rate
		app("a4", energy.ModelResNet50, "local", 20, 5),       // a0's class exactly
		app("a5", energy.ModelResNet50, "local", 10, 5),       // a0's rows, other SLO
	}
	p, err := ws.Problem(apps)
	if err != nil {
		t.Fatal(err)
	}
	sameCoeff := func(i, k int) bool {
		return &p.Demand[i][0] == &p.Demand[k][0] && &p.PowerW[i][0] == &p.PowerW[k][0] &&
			&p.Compatible[i][0] == &p.Compatible[k][0]
	}
	anyCoeff := func(i, k int) bool {
		return &p.Demand[i][0] == &p.Demand[k][0] || &p.PowerW[i][0] == &p.PowerW[k][0] ||
			&p.Compatible[i][0] == &p.Compatible[k][0]
	}
	sameLat := func(i, k int) bool { return &p.LatencyMs[i][0] == &p.LatencyMs[k][0] }
	for _, k := range []int{1, 4, 5} {
		if !sameCoeff(0, k) {
			t.Fatalf("apps 0 and %d are one (model, rate) class but do not share Demand/PowerW/Compatible backing", k)
		}
	}
	for _, k := range []int{2, 3} {
		if anyCoeff(0, k) {
			t.Fatalf("apps 0 and %d differ in (model, rate) but share coefficient backing", k)
		}
	}
	for _, k := range []int{2, 3, 4, 5} {
		if !sameLat(0, k) {
			t.Fatalf("apps 0 and %d share a source but not LatencyMs backing", k)
		}
	}
	if sameLat(0, 1) {
		t.Fatal("apps 0 and 1 have different sources but share LatencyMs backing")
	}
	if got, want := p.classOf, []int32{0, 1, 2, 3, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("class stamp %v, want %v", got, want)
	}
	if got, want := p.classRep, []int32{0, 1, 2, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("class representatives %v, want %v", got, want)
	}
	if &p.Candidates[0][0] != &p.Candidates[4][0] {
		t.Fatal("apps of one class do not share their shortlist")
	}
}

// TestWorkspaceViewRowsReadOnly runs the whole lifecycle — solve, commit,
// release, next view — under both backends and checks nothing wrote
// through a view: the shared class and RTT rows are bit-identical
// afterwards.
func TestWorkspaceViewRowsReadOnly(t *testing.T) {
	for name, mk := range map[string]func() Solver{
		"heuristic": func() Solver { return NewHeuristicSolver() },
		"exact":     func() Solver { return NewExactSolver() },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(57))
			inst := classedWSInstance(rng, 8, 7)
			ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
			if err != nil {
				t.Fatal(err)
			}
			solver := mk()
			p, err := ws.Problem(inst.apps)
			if err != nil {
				t.Fatal(err)
			}
			want := copyRows(p)
			for round := 0; round < 3; round++ {
				a, err := solveNew(solver, p, CarbonAware{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				want.prefixOf(t, "after solve", p)
				if err := ws.CommitAssignment(p, a); err != nil {
					t.Fatal(err)
				}
				want.prefixOf(t, "after commit", p)
				for i, j := range a.ServerOf {
					if j >= 0 && i%2 == round%2 {
						if err := ws.ReleaseApp(p.Apps[i].ID); err != nil {
							t.Fatal(err)
						}
					}
				}
				for j := range inst.servers {
					ws.UpdateIntensity(j, 10+rng.Float64()*800)
				}
				next := append([]App(nil), inst.apps...)
				for i := range next {
					next[i].ID = fmt.Sprintf("r%d-%s", round, next[i].ID)
				}
				if p, err = ws.Problem(next); err != nil {
					t.Fatal(err)
				}
				want.prefixOf(t, "in the next view", p)
			}
		})
	}
}

// TestWorkspaceViewFeasibleIffCandidate: with capacity out of the
// picture, Feasible is true exactly on the shortlist cells — the cells
// off the shortlists hold true values, not a wiped gate.
func TestWorkspaceViewFeasibleIffCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		inst := randomWSInstance(rng, 1+rng.Intn(10), 2+rng.Intn(10))
		for j := range inst.servers {
			inst.servers[j].Free = cluster.NewResources(math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1))
		}
		ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ws.Problem(inst.apps)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := Build(inst.apps, inst.servers, inst.rtt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Apps {
			for j := range p.Servers {
				if got, want := p.Feasible(i, j), slotOf(p.Candidates[i], j) >= 0; got != want {
					t.Fatalf("trial %d: Feasible(%d,%d) = %v, candidate = %v", trial, i, j, got, want)
				}
				if p.Feasible(i, j) != dense.Feasible(i, j) {
					t.Fatalf("trial %d: Feasible(%d,%d) disagrees with the dense build", trial, i, j)
				}
			}
		}
	}
}

// TestWorkspaceViewSurvivesAddServers: class rows are append-only, so a
// view taken before the fleet grows still solves to the same assignment,
// and the next view's rows extend the old ones.
func TestWorkspaceViewSurvivesAddServers(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	inst := classedWSInstance(rng, 12, 5)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ws.Problem(inst.apps)
	if err != nil {
		t.Fatal(err)
	}
	before, err := NewHeuristicSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	old := copyRows(p)
	// Grow one server at a time so the rows' backing arrays are outgrown
	// and reallocated along the way.
	for k, s := range randomWSInstance(rng, 0, 20).servers {
		s.ID = fmt.Sprintf("added-%d", k)
		if err := ws.AddServers(s); err != nil {
			t.Fatal(err)
		}
	}
	old.prefixOf(t, "after AddServers", p)
	if len(p.Servers) != 5 || len(p.Demand[0]) != 5 {
		t.Fatalf("old view resized: %d servers, %d columns", len(p.Servers), len(p.Demand[0]))
	}
	after, err := NewHeuristicSolver().Solve(p, CarbonAware{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("pre-growth view solves differently after AddServers:\nbefore: %+v\nafter:  %+v", before, after)
	}
	if p, err = ws.Problem(inst.apps); err != nil {
		t.Fatal(err)
	}
	if len(p.Demand[0]) != 25 {
		t.Fatalf("next view has %d columns, want 25", len(p.Demand[0]))
	}
	old.prefixOf(t, "in the widened view", p)
}

// allocBytes reports the bytes f allocates.
func allocBytes(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestWorkspaceProblemAllocations: a view is O(batch) headers over shared
// rows, so a CDN-scale batch costs well under a megabyte cold (a dense
// 2000 x 400 arena is ~39 MB) and nothing at all in steady state.
func TestWorkspaceProblemAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	inst := classedWSInstance(rng, 2000, 400)
	for i := range inst.apps {
		inst.apps[i].SLOms = 4 // CDN shape: shortlists stay inside the app's own city
	}
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := allocBytes(func() {
		if _, err := ws.Problem(inst.apps); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 1<<20 {
		t.Fatalf("first Problem call allocated %d bytes, budget is 1 MB", cold)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := ws.Problem(inst.apps); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state Problem allocates %v objects per call, want 0", n)
	}
}

// TestWorkspaceAddServersAllocationBounded: fleet growth extends the
// shared rows in place. Six scale-out rounds, each followed by a 500-app
// view, must cost a bounded total that tracks the fleet — the n x m arena
// this replaced was laid out afresh at twice the size on every width
// change (2 GB at six rounds in the simulator, out of memory at twelve).
func TestWorkspaceAddServersAllocationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	inst := classedWSInstance(rng, 500, 400)
	ws, err := NewWorkspace(inst.servers, inst.rtt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Problem(inst.apps); err != nil {
		t.Fatal(err)
	}
	var total, worst uint64
	for round := 0; round < 6; round++ {
		more := randomWSInstance(rng, 0, 8).servers
		for j := range more {
			more[j].ID = fmt.Sprintf("added-%d-%d", round, j)
		}
		got := allocBytes(func() {
			if err := ws.AddServers(more...); err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Problem(inst.apps); err != nil {
				t.Fatal(err)
			}
		})
		total += got
		if got > worst {
			worst = got
		}
	}
	// One dense 500 x 400 arena is 9.8 MB before any doubling. The shared
	// rows are ~110 class rows of ~450 cells: growing all of them, with
	// append's headroom, stays under a megabyte per round.
	if worst > 1<<20 || total > 3<<20 {
		t.Fatalf("six AddServers rounds allocated %d bytes (worst round %d), budget 3 MB / 1 MB", total, worst)
	}
}
