package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// Fig17Point is one scalability sample.
type Fig17Point struct {
	Servers, Apps int
	SolveTime     time.Duration
	AllocMB       float64
}

// Fig17Result reproduces Figure 17: placement-algorithm scalability in the
// number of servers and applications.
type Fig17Result struct {
	ByServers []Fig17Point // 50 apps, servers swept
	ByApps    []Fig17Point // 400 servers, apps swept
}

// SyntheticInstance is a random placement instance before assembly: the
// raw apps, servers, and latency oracle a placement.Workspace is built
// from.
type SyntheticInstance struct {
	Apps    []placement.App
	Servers []placement.Server
	RTT     placement.RTTFunc
}

// NewSyntheticInstance draws a random instance: nServers A2-class servers
// spread round-robin over nCities cities on a line (RTT grows with city
// distance), and nApps ResNet50 apps with the given SLO. Rates are drawn
// per app, so each app is its own workspace class — the worst case for
// the workspace's memoization.
func NewSyntheticInstance(nApps, nServers, nCities int, sloMs float64, seed int64) SyntheticInstance {
	rng := rng.NewStd(seed)
	cities := make([]string, nCities)
	cityIdx := make(map[string]int, nCities)
	for c := range cities {
		cities[c] = fmt.Sprintf("city-%02d", c)
		cityIdx[cities[c]] = c
	}
	servers := make([]placement.Server, nServers)
	for j := range servers {
		servers[j] = placement.Server{
			ID:         fmt.Sprintf("s%04d", j),
			DC:         cities[j%len(cities)],
			Device:     energy.A2.Name,
			Intensity:  20 + rng.Float64()*700,
			BasePowerW: energy.A2.IdleW,
			PoweredOn:  true,
			Free:       cluster.NewResources(1000, 65536, 16384, 1e6),
		}
	}
	apps := make([]placement.App, nApps)
	for i := range apps {
		apps[i] = placement.App{
			ID:         fmt.Sprintf("a%04d", i),
			Model:      energy.ModelResNet50,
			Source:     cities[rng.Intn(len(cities))],
			SLOms:      sloMs,
			RatePerSec: 2 + rng.Float64()*8,
		}
	}
	rtt := func(src, dc string) float64 {
		if src == dc {
			return 2
		}
		return 4 + 2*float64(abs(cityIdx[src]-cityIdx[dc]))
	}
	return SyntheticInstance{Apps: apps, Servers: servers, RTT: rtt}
}

// SyntheticProblem is one view of a random instance of the given size (8
// cities, 30 ms SLO — everything latency-feasible, the shape of the
// fig17/ablation inputs), assembled by a workspace of its own, so the view
// stays valid for the caller.
func SyntheticProblem(nApps, nServers int, seed int64) (*placement.Problem, error) {
	ws, apps, err := SyntheticWorkspace(nApps, nServers, seed)
	if err != nil {
		return nil, err
	}
	return ws.Problem(apps)
}

// SyntheticWorkspace builds the same random instance as a workspace that
// owns the servers, for callers that assemble many views (ws.Problem) of
// the apps against it.
func SyntheticWorkspace(nApps, nServers int, seed int64) (*placement.Workspace, []placement.App, error) {
	inst := NewSyntheticInstance(nApps, nServers, 8, 30, seed)
	ws, err := placement.NewWorkspace(inst.Servers, inst.RTT, nil)
	if err != nil {
		return nil, nil, err
	}
	return ws, inst.Apps, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// measure samples the per-batch cost of the system's hot path — problem
// assembly against the persistent workspace plus the solve — in time and
// allocation, at steady state: the workspace is built and primed (memo
// tables and arena warm) before the timed pass, the way every batch but
// a run's first sees it. Workspace construction is paid once per world,
// not per batch.
func measure(nApps, nServers int) (Fig17Point, error) {
	ws, apps, err := SyntheticWorkspace(nApps, nServers, int64(nApps*100000+nServers))
	if err != nil {
		return Fig17Point{}, err
	}
	solver := placement.NewHeuristicSolver()
	if _, err := ws.Problem(apps); err != nil {
		return Fig17Point{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	prob, err := ws.Problem(apps)
	if err != nil {
		return Fig17Point{}, err
	}
	a, err := solver.Solve(prob, placement.CarbonAware{})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Fig17Point{}, err
	}
	if err := prob.CheckFeasible(a); err != nil {
		return Fig17Point{}, err
	}
	return Fig17Point{
		Servers:   nServers,
		Apps:      nApps,
		SolveTime: elapsed,
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}, nil
}

// fig17Size is one swept (apps, servers) instance size.
type fig17Size struct{ apps, servers int }

// fig17ByServers sweeps server count at 50 apps; fig17ByApps sweeps app
// count at 400 servers.
var (
	fig17ByServers = []fig17Size{{50, 100}, {50, 200}, {50, 300}, {50, 400}}
	fig17ByApps    = []fig17Size{{20, 400}, {60, 400}, {100, 400}, {140, 400}}
)

// Fig17 sweeps both input dimensions through the sweep runner, pinned to
// one worker: SolveTime and AllocMB are process-global measurements
// (wall clock, runtime.MemStats), so any concurrent grid activity —
// including another point's instance generation — would cross-charge
// them. Grid declaration and result ordering still go through sweep.
func (s *Suite) Fig17() (*Fig17Result, error) {
	grid := append(append([]fig17Size{}, fig17ByServers...), fig17ByApps...)
	pts, err := sweep.Map(1, len(grid), func(i int) (Fig17Point, error) {
		return measure(grid[i].apps, grid[i].servers)
	})
	if err != nil {
		return nil, err
	}
	return &Fig17Result{
		ByServers: pts[:len(fig17ByServers)],
		ByApps:    pts[len(fig17ByServers):],
	}, nil
}

// String renders both sweeps.
func (r *Fig17Result) String() string {
	rows := [][]string{{"servers", "apps", "time", "alloc MB"}}
	for _, pt := range append(append([]Fig17Point{}, r.ByServers...), r.ByApps...) {
		rows = append(rows, []string{
			fmt.Sprint(pt.Servers), fmt.Sprint(pt.Apps),
			pt.SolveTime.Round(time.Microsecond).String(), f1(pt.AllocMB)})
	}
	return table("Figure 17: placement scalability (paper: <3 s, <200 MB at 400 servers / 140 apps)", rows)
}

// AblationSolverResult compares the exact MILP backend against the
// heuristic on instances the exact solver can handle (DESIGN.md ablation 1).
type AblationSolverResult struct {
	Instances    int
	MeanGapPct   float64
	MaxGapPct    float64
	ExactTime    time.Duration
	HeurTime     time.Duration
	HeurFeasible bool
}

// AblationSolver measures the heuristic's optimality gap over ten trials.
// Like Fig17 the trials run through the sweep runner pinned to one
// worker: the exact-vs-heuristic solve times are wall-clock measurements
// that concurrent trials would inflate with scheduler contention.
func (s *Suite) AblationSolver() (*AblationSolverResult, error) {
	type trialResult struct {
		gap        float64
		exact      time.Duration
		heur       time.Duration
		infeasible bool
	}
	trials, err := sweep.Map(1, 10, func(trial int) (trialResult, error) {
		prob, err := SyntheticProblem(4+trial%4, 6+trial%5, int64(trial))
		if err != nil {
			return trialResult{}, err
		}
		var tr trialResult
		t0 := time.Now()
		exact, err := placement.NewExactSolver().Solve(prob, placement.CarbonAware{})
		tr.exact = time.Since(t0)
		if err != nil {
			return trialResult{}, err
		}
		t0 = time.Now()
		heur, err := placement.NewHeuristicSolver().Solve(prob, placement.CarbonAware{})
		tr.heur = time.Since(t0)
		if err != nil {
			return trialResult{}, err
		}
		tr.infeasible = prob.CheckFeasible(heur) != nil
		me, mh := prob.Evaluate(exact), prob.Evaluate(heur)
		if me.CarbonGPerHour > 0 {
			gap := (mh.CarbonGPerHour - me.CarbonGPerHour) / me.CarbonGPerHour * 100
			if gap < 0 {
				gap = 0
			}
			tr.gap = gap
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationSolverResult{HeurFeasible: true}
	var gapSum float64
	for _, tr := range trials {
		gapSum += tr.gap
		if tr.gap > res.MaxGapPct {
			res.MaxGapPct = tr.gap
		}
		res.ExactTime += tr.exact
		res.HeurTime += tr.heur
		if tr.infeasible {
			res.HeurFeasible = false
		}
		res.Instances++
	}
	res.MeanGapPct = gapSum / float64(res.Instances)
	return res, nil
}

// String renders the solver ablation.
func (r *AblationSolverResult) String() string {
	return fmt.Sprintf(
		"Ablation (solver): %d instances, heuristic gap mean %.2f%% max %.2f%%, exact %v vs heuristic %v, feasible=%v\n",
		r.Instances, r.MeanGapPct, r.MaxGapPct,
		r.ExactTime.Round(time.Millisecond), r.HeurTime.Round(time.Millisecond), r.HeurFeasible)
}

// AblationForecastResult compares forecast models feeding the placement
// loop (DESIGN.md ablation 2).
type AblationForecastResult struct {
	// CarbonG per forecaster name.
	CarbonG map[string]float64
}

// AblationForecast runs the European CDN month under three forecasters,
// as one three-point grid.
func (s *Suite) AblationForecast() (*AblationForecastResult, error) {
	forecasters := []carbon.Forecaster{
		carbon.SeasonalNaive{Period: 24},
		carbon.EWMA{Alpha: 0.2},
		carbon.Oracle{},
	}
	g := s.newGrid()
	for _, fc := range forecasters {
		cfg := s.cdnConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.Forecaster = fc
		if cfg.Hours > 24*30 {
			cfg.Hours = 24 * 30
		}
		g.Add(fc.Name(), cfg)
	}
	runs, err := g.Run()
	if err != nil {
		return nil, err
	}
	res := &AblationForecastResult{CarbonG: map[string]float64{}}
	for i, fc := range forecasters {
		res.CarbonG[fc.Name()] = runs[i].CarbonG
	}
	return res, nil
}

// String renders the forecast ablation.
func (r *AblationForecastResult) String() string {
	rows := [][]string{{"forecaster", "carbon (g)"}}
	for _, name := range []string{"oracle", "seasonal-naive", "ewma"} {
		if v, ok := r.CarbonG[name]; ok {
			rows = append(rows, []string{name, f1(v)})
		}
	}
	return table("Ablation (forecast model): carbon under each forecaster (oracle = lower bound)", rows)
}

// AblationBatchResult sweeps the placement batching interval (DESIGN.md
// ablation 3).
type AblationBatchResult struct {
	// CarbonG and Batches per batch-hours setting.
	CarbonG map[int]float64
	Batches map[int]int
}

// ablationBatchHours are the swept batching intervals.
var ablationBatchHours = []int{1, 3, 6, 12}

// AblationBatch compares batching intervals as a four-point grid.
func (s *Suite) AblationBatch() (*AblationBatchResult, error) {
	g := s.newGrid()
	for _, bh := range ablationBatchHours {
		cfg := s.cdnConfig(carbon.RegionEurope, placement.CarbonAware{})
		cfg.BatchHours = bh
		if cfg.Hours > 24*30 {
			cfg.Hours = 24 * 30
		}
		g.Add(fmt.Sprintf("batch=%dh", bh), cfg)
	}
	runs, err := g.Run()
	if err != nil {
		return nil, err
	}
	res := &AblationBatchResult{CarbonG: map[int]float64{}, Batches: map[int]int{}}
	for i, bh := range ablationBatchHours {
		res.CarbonG[bh] = runs[i].CarbonG
		res.Batches[bh] = runs[i].Batches
	}
	return res, nil
}

// String renders the batching ablation.
func (r *AblationBatchResult) String() string {
	rows := [][]string{{"batch (h)", "carbon (g)", "solver invocations"}}
	for _, bh := range ablationBatchHours {
		rows = append(rows, []string{fmt.Sprint(bh), f1(r.CarbonG[bh]), fmt.Sprint(r.Batches[bh])})
	}
	return table("Ablation (batch interval): placement quality vs solver invocations", rows)
}

// AblationActivationResult toggles the server-activation term (DESIGN.md
// ablation 4).
type AblationActivationResult struct {
	WithTermG    float64
	WithoutTermG float64
	WithTermKWh  float64
	WithoutKWh   float64
}

// noActivation wraps CarbonAware with a zero activation cost.
type noActivation struct{ placement.CarbonAware }

func (noActivation) Name() string                                       { return "CarbonEdge(no-activation)" }
func (noActivation) ActivationCost(p *placement.Problem, j int) float64 { return 0 }

// AblationActivation compares placements with and without the activation
// term in a power-managed deployment — a two-point grid.
func (s *Suite) AblationActivation() (*AblationActivationResult, error) {
	g := s.newGrid()
	for _, pol := range []placement.Policy{placement.CarbonAware{}, noActivation{}} {
		cfg := s.cdnConfig(carbon.RegionEurope, pol)
		cfg.ServersAlwaysOn = false
		cfg.ArrivalsPerHour = 2
		if cfg.Hours > 24*30 {
			cfg.Hours = 24 * 30
		}
		g.Add(pol.Name(), cfg)
	}
	runs, err := g.Run()
	if err != nil {
		return nil, err
	}
	with, without := runs[0], runs[1]
	return &AblationActivationResult{
		WithTermG: with.CarbonG, WithoutTermG: without.CarbonG,
		WithTermKWh: with.EnergyKWh, WithoutKWh: without.EnergyKWh,
	}, nil
}

// String renders the activation ablation.
func (r *AblationActivationResult) String() string {
	rows := [][]string{
		{"variant", "carbon (g)", "energy (kWh)"},
		{"with activation term", f1(r.WithTermG), f2(r.WithTermKWh)},
		{"without activation term", f1(r.WithoutTermG), f2(r.WithoutKWh)},
	}
	return table("Ablation (activation term): Eq. 6's server-activation component", rows)
}

// ExtRedeployResult evaluates the §7 future-work extension: periodic
// redeployment of long-lived applications with a data-movement cost.
type ExtRedeployResult struct {
	StaticCarbonG   float64
	RedeployCarbonG float64
	Migrations      int
	MigrationG      float64
	ExtraSavingPct  float64
}

// ExtRedeploy compares static placement against 12-hourly redeployment for
// week-long applications in the European CDN, charging 500 MB of state
// transfer at 0.2 J/MB per migration. The two variants run concurrently.
func (s *Suite) ExtRedeploy() (*ExtRedeployResult, error) {
	cfg := s.cdnConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.AppLifetimeHours = 24 * 7
	if cfg.Hours > 24*60 {
		cfg.Hours = 24 * 60
	}
	g := s.newGrid()
	g.Add("static", cfg)
	cfg.RedeployEveryHours = 12
	cfg.MigrationDataMB = 500
	cfg.MigrationJPerMB = 0.2
	g.Add("redeploy-12h", cfg)
	runs, err := g.Run()
	if err != nil {
		return nil, err
	}
	static, dynamic := runs[0], runs[1]
	res := &ExtRedeployResult{
		StaticCarbonG:   static.CarbonG,
		RedeployCarbonG: dynamic.CarbonG,
		Migrations:      dynamic.Migrations,
		MigrationG:      dynamic.MigrationCarbonG,
	}
	if static.CarbonG > 0 {
		res.ExtraSavingPct = (static.CarbonG - dynamic.CarbonG) / static.CarbonG * 100
	}
	return res, nil
}

// String renders the redeployment extension comparison.
func (r *ExtRedeployResult) String() string {
	rows := [][]string{
		{"variant", "carbon (g)"},
		{"static placement (paper prototype)", f1(r.StaticCarbonG)},
		{"12-hourly redeployment", f1(r.RedeployCarbonG)},
		{"extra saving", f1(r.ExtraSavingPct) + " %"},
		{"migrations", fmt.Sprint(r.Migrations)},
		{"migration carbon", f1(r.MigrationG) + " g"},
	}
	return table("Extension (§7 future work): periodic redeployment with data-movement cost", rows)
}
