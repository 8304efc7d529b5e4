package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Layer probes call one public function of one package directly on a
// fixed synthetic input and report the median over their calls. They do
// not depend on the workload.

// prober sizes the probes: 30 calls each (3 under -quick); the heavy
// one (a full trace set per call) a sixth of that.
type prober struct {
	rc    *runCtx
	calls int
	m     *metrics
}

// sample calls fn n times; fn returns what it measured, in the metric's
// unit.
func sample(n int, fn func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func runProbes(rc *runCtx) (*metrics, error) {
	p := &prober{rc: rc, calls: 30, m: newMetrics()}
	if rc.quick {
		p.calls = 3
	}
	for _, probe := range []func() error{p.placement, p.router, p.traffic, p.events, p.carbon, p.sweep} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

func (p *prober) heavyCalls() int { return max(1, p.calls/6) }

func (p *prober) placement() error {
	const nApps, nServers, batch = 960, 400, 120
	ws, apps, err := experiments.SyntheticWorkspace(nApps, nServers, p.rc.seed)
	if err != nil {
		return err
	}
	// The engine's solver settings: problems assembled by a workspace
	// are trusted.
	solver := &placement.HeuristicSolver{SkipValidate: true}
	pol := placement.CarbonAware{}
	r := rng.NewStd(p.rc.seed)
	var perr error
	fail := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	problem := func(as []placement.App) *placement.Problem {
		prob, err := ws.Problem(as)
		fail(err)
		return prob
	}
	// tick moves every server's intensity, as a carbon tick does: all
	// memoized cost rows are re-evaluated and the solver's continuation
	// is invalidated.
	tick := func() {
		for j := 0; j < nServers; j++ {
			ws.UpdateIntensity(j, 20+r.Float64()*700)
		}
	}
	serial := 0
	churn := func() {
		for c := 0; c < nApps/20; c++ {
			pos := r.Intn(nApps)
			serial++
			apps[pos] = placement.App{
				ID: fmt.Sprintf("churn-%06d", serial), Model: energy.ModelResNet50,
				Source: apps[r.Intn(nApps)].Source, SLOms: apps[pos].SLOms, RatePerSec: 2 + r.Float64()*8,
			}
		}
	}

	prob := problem(apps)
	if perr != nil {
		return perr
	}
	var cold, prev placement.Assignment
	if err := solver.SolveInto(&cold, prob, pol, nil); err != nil {
		return err
	}
	if err := prob.CheckFeasible(&cold); err != nil {
		return fmt.Errorf("placement probe: %w", err)
	}
	p.m.simulated("placement.probe_objective", "g/h", prob.Evaluate(&cold).CarbonGPerHour)
	solve := func(warm *placement.Assignment) float64 {
		prob := problem(apps)
		d := timed(func() { fail(solver.SolveInto(&cold, prob, pol, warm)) })
		prev.ServerOf = append(prev.ServerOf[:0], cold.ServerOf...)
		return ms(d)
	}
	solve(nil)

	p.m.host("placement.problem_build_us", "us", sample(p.calls, func(int) float64 {
		return us(timed(func() { problem(apps[:batch]) }))
	})...)
	p.m.host("placement.solve_warm_ms", "ms", sample(p.calls, func(int) float64 {
		churn()
		return solve(&prev)
	})...)
	p.m.host("placement.solve_after_tick_ms", "ms", sample(p.calls, func(int) float64 {
		tick()
		return solve(&prev)
	})...)
	p.m.host("placement.solve_cold_ms", "ms", sample(p.calls, func(int) float64 {
		tick()
		return solve(nil)
	})...)

	var release []float64
	commit := sample(p.calls, func(int) float64 {
		prob := problem(apps[:batch])
		var a placement.Assignment
		fail(solver.SolveInto(&a, prob, pol, nil))
		d := timed(func() { fail(ws.CommitAssignment(prob, &a)) })
		placed := 0
		rel := timed(func() {
			for i, j := range a.ServerOf {
				if j >= 0 {
					fail(ws.ReleaseApp(prob.Apps[i].ID))
					placed++
				}
			}
		})
		release = append(release, ns(rel)/float64(max(1, placed)))
		return us(d)
	})
	p.m.host("placement.commit_us", "us", commit...)
	p.m.host("placement.release_ns_per_app", "ns", release...)

	small, err := experiments.SyntheticProblem(8, 8, p.rc.seed)
	if err != nil {
		return err
	}
	exact := placement.NewExactSolver()
	p.m.host("placement.exact_8x8_ms", "ms", sample(p.calls, func(int) float64 {
		return ms(timed(func() { _, err := exact.Solve(small, pol); fail(err) }))
	})...)
	return perr
}

// router routes one hour-long slice from 40 sources on a line across
// 120 replicas (three per location, 20 ms SLO reaching eight hops),
// under capacity and at three times capacity.
func (p *prober) router() error {
	const nLoc, perLoc, capRPS, seconds = 40, 3, 100.0, 3600.0
	rtt := func(a, b int) float64 {
		if a == b {
			return 2
		}
		return 4 + 2*float64(max(a-b, b-a))
	}
	replicas := make([]router.Replica, nLoc*perLoc)
	for i := range replicas {
		loc := i % nLoc
		replicas[i] = router.Replica{
			ID: fmt.Sprintf("loc-%02d", loc), City: fmt.Sprintf("loc-%02d", loc), Loc: loc, ZoneID: fmt.Sprintf("z%d", loc%7),
			CapacityRPS: capRPS, ServiceMs: 4, EnergyPerReqJ: 0.5,
		}
	}
	intensity := func(string) float64 { return 300 }
	r := rng.NewStd(p.rc.seed)
	counts := make([]int64, nLoc)
	run := func(name string, load float64) (*router.Router, error) {
		rt, err := router.New(router.Config{
			SLOms: 20, RTTAt: rtt,
			RTT: func(string, string) float64 { return 0 },
		})
		if err != nil {
			return nil, err
		}
		perSource := load * capRPS * seconds * float64(len(replicas)) / nLoc
		p.m.host(name, "us", sample(p.calls, func(int) float64 {
			for i := range counts {
				counts[i] = int64(perSource * (0.5 + r.Float64()))
			}
			return us(timed(func() {
				s := rt.ReuseSlice(replicas, seconds)
				for src, n := range counts {
					s.RouteAt(src, n, intensity)
				}
				s.Close()
			}))
		})...)
		return rt, nil
	}
	if _, err := run("router.route_us_per_slice", 0.5); err != nil {
		return err
	}
	rt, err := run("router.route_saturated_us_per_slice", 3)
	if err != nil {
		return err
	}
	p.m.simulated("router.probe_drop_pct", "%", rt.Stats().DropRate()*100)
	return nil
}

func (p *prober) traffic() error {
	sources := make([]traffic.Source, 40)
	for i := range sources {
		sources[i] = traffic.Source{City: fmt.Sprintf("loc-%02d", i), Weight: float64(1 + i%5), Lon: -120 + 1.5*float64(i)}
	}
	start := p.rc.world.Traces.Start
	for _, scn := range []traffic.Scenario{traffic.Steady, traffic.FlashCrowd, traffic.Diurnal} {
		gen, err := traffic.NewGenerator(*p.rc.traffic(scn, 2000), start, sources)
		if err != nil {
			return err
		}
		const hours = 240
		var buf []int64
		p.m.host("traffic.slice_ns_per_source."+scn.String(), "ns", sample(p.calls, func(i int) float64 {
			return ns(timed(func() {
				for h := 0; h < hours; h++ {
					buf = gen.AppendSlice(buf[:0], i*hours+h)
				}
			})) / float64(hours*len(sources))
		})...)
	}
	return nil
}

// events schedules and pops eight no-op events per epoch for 10 000
// epochs, the engine's dispatch shape (the heap never holds more than
// one epoch). Each phase of each epoch pays one clock read.
func (p *prober) events() error {
	const perEpoch, epochs = 8, 10000
	noop := func(time.Time) error { return nil }
	var sched, proc []float64
	for c := 0; c < p.calls; c++ {
		tl := events.NewTimeline()
		now := p.rc.world.Traces.Start
		var s, pr time.Duration
		for e := 0; e < epochs; e++ {
			t0 := time.Now()
			for k := 0; k < perEpoch; k++ {
				tl.Schedule(now, "probe", noop)
			}
			t1 := time.Now()
			for {
				_, ok, err := tl.ProcessNext(now)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			s += t1.Sub(t0)
			pr += time.Since(t1)
			now = now.Add(time.Hour)
		}
		sched = append(sched, ns(s)/(perEpoch*epochs))
		proc = append(proc, ns(pr)/(perEpoch*epochs))
	}
	p.m.host("events.schedule_ns_per_event", "ns", sched...)
	p.m.host("events.process_ns_per_event", "ns", proc...)
	return nil
}

func (p *prober) carbon() error {
	zones := p.rc.world.Zones
	// Seeds no world of this run uses, so every call misses the memo.
	coldSeed := func(i int) int64 { return rng.MixSeed2(p.rc.seed, int64(1000+i)) }
	p.m.host("carbon.generate_traces_ms", "ms", sample(p.heavyCalls(), func(i int) float64 {
		return ms(timed(func() { carbon.NewGenerator(coldSeed(i)).GenerateTraces(zones) }))
	})...)
	var warm []float64
	cold := sample(p.calls, func(i int) float64 {
		g := carbon.NewGenerator(coldSeed(100 + i))
		z := zones.Zones()[i%zones.Len()]
		d := timed(func() { g.Mixes(z) })
		warm = append(warm, ms(timed(func() { g.Mixes(z) })))
		return ms(d)
	})
	p.m.host("carbon.mixes_cold_ms", "ms", cold...)
	p.m.host("carbon.mixes_warm_ms", "ms", warm...)

	svc := carbon.NewService(p.rc.world.Traces, carbon.SeasonalNaive{Period: 24})
	ids := p.rc.world.Traces.ZoneIDs()
	start := p.rc.world.Traces.Start
	var ferr error
	const lookups = 2000
	p.m.host("carbon.mean_forecast_ns", "ns", sample(p.calls, func(i int) float64 {
		return ns(timed(func() {
			for k := 0; k < lookups; k++ {
				now := start.Add(time.Duration(48+(i*lookups+k)%4000) * time.Hour)
				if _, err := svc.MeanForecast(ids[k%len(ids)], now, 24); err != nil {
					ferr = err
				}
			}
		})) / lookups
	})...)
	return ferr
}

// sweep runs cdn_year's four configs as one grid, serially and on every
// core: the repo's sweep-level multi-core figure. One run each.
func (p *prober) sweep() error {
	grid := func(parallel int) (time.Duration, error) {
		g := &sweep.Grid{World: p.rc.world, Parallel: parallel}
		for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
			g.Add(region.String()+"/aware", p.rc.baseConfig(region, placement.CarbonAware{}, 8760))
			g.Add(region.String()+"/latency", p.rc.baseConfig(region, placement.LatencyAware{}, 8760))
		}
		var err error
		d := timed(func() { _, err = g.Run() })
		return d, err
	}
	serial, err := grid(1)
	if err != nil {
		return err
	}
	par, err := grid(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	p.m.host("sweep.parallel_speedup_x", "x", serial.Seconds()/par.Seconds())
	p.m.host("sweep.serial_ms", "ms", ms(serial))
	return nil
}
