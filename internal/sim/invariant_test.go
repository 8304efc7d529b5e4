package sim

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/carbon"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/router"
	"repro/internal/traffic"
)

// checkClassRows returns the first way a bound app template's class rows
// are not its true cells, or nil, with the number of views it built. Each
// template (Engine.appTemplate) is viewed alone through the workspace, so
// the view aliases the class rows every arrival and redeploy of its shape
// shares; over every server its Demand, PowerW and Compatible cells must
// be exactly what Coefficients gives the server's device at the config's
// rate, and its LatencyMs cell the RTT from the template's source site to
// the server's site. A stray write into a shared row shows here even on a
// server no live app sits on.
func checkClassRows(e *Engine) (int, error) {
	views := 0
	for k, t := range e.pool.apps {
		if t.Source == "" {
			continue // no arrival or redeploy has needed this shape
		}
		src := k % len(e.sites)
		t.ID = "row-check"
		p, err := e.ws.Problem([]placement.App{t})
		if err != nil {
			return views, err
		}
		views++
		if len(p.Demand[0]) != len(e.servers) {
			return views, fmt.Errorf("template %s from site %d: rows cover %d servers, the engine has %d", t.Model, src, len(p.Demand[0]), len(e.servers))
		}
		for j := range e.servers {
			srv := &e.servers[j]
			var d cluster.Resources
			var w float64
			ok := false
			if prof, err := energy.ProfileFor(t.Model, srv.Device.Name); err == nil {
				d, w, ok = placement.Coefficients(prof, appRatePerSec)
			}
			rtt := e.rtt[src][srv.site]
			if p.Demand[0][j] != d || p.PowerW[0][j] != w || p.Compatible[0][j] != ok || p.LatencyMs[0][j] != rtt {
				return views, fmt.Errorf("template %s from site %d on server %d (%s): row cells %v, %g W, compatible %v, %g ms; want %v, %g W, %v, %g ms",
					t.Model, src, j, srv.Device.Name, p.Demand[0][j], p.PowerW[0][j], p.Compatible[0][j], p.LatencyMs[0][j], d, w, ok, rtt)
			}
		}
	}
	return views, nil
}

// clocks are the counters that never go back within one engine: its
// epoch, and its workspace's view generation (a class memo row is
// current when stamped with it) and candidate-memo era (a class hint is
// valid when stamped with it). A counter that went back could make a
// stale stamp current again. The workspace's are read by reflection, so
// placement exports nothing for this test. No golden config fills the
// candidate memo, so candEra stays 0 in them; placement's hint tests
// advance it.
type clocks struct {
	epoch   int
	viewGen uint64
	candEra int64
}

func readClocks(e *Engine) clocks {
	ws := reflect.ValueOf(e.ws).Elem()
	return clocks{epoch: e.Epoch(), viewGen: ws.FieldByName("viewGen").Uint(), candEra: ws.FieldByName("candEra").Int()}
}

// checkClocks returns how cur went back from prev, or nil.
func checkClocks(prev, cur clocks) error {
	switch {
	case cur.epoch < prev.epoch:
		return fmt.Errorf("engine epoch went back from %d to %d", prev.epoch, cur.epoch)
	case cur.viewGen < prev.viewGen:
		return fmt.Errorf("workspace viewGen went back from %d to %d", prev.viewGen, cur.viewGen)
	case cur.candEra < prev.candEra:
		return fmt.Errorf("workspace candEra went back from %d to %d", prev.candEra, cur.candEra)
	}
	return nil
}

// checkPlacementCounts returns the first way res's placement counters
// fail to conserve its placements, or nil: the per-city counts sum to
// Placed, and each city's per-month counts ("city/m") sum to its own
// count, with no month key outside a counted city.
func checkPlacementCounts(res *Result) error {
	months := maps.Collect(res.MonthlyPlacements.All())
	var total, monthly int64
	for city, n := range res.PlacementsByCity.All() {
		total += n
		var sum int64
		for m := 0; m < 12; m++ {
			sum += months[fmt.Sprintf("%s/%d", city, m)]
		}
		if sum != n {
			return fmt.Errorf("city %s: %d placements by city, %d summed over its months", city, n, sum)
		}
	}
	for _, n := range months {
		monthly += n
	}
	if total != int64(res.Placed) || monthly != total {
		return fmt.Errorf("%d placements by city and %d by month, Placed is %d", total, monthly, res.Placed)
	}
	return nil
}

// requestCheck holds a traffic engine's router counters to the requests
// its epochs offered. A second generator, built as initTraffic builds the
// engine's, redraws each epoch's slice; before each Step, before records
// the injected requests due at the epoch about to run. After it, check
// wants the epoch's Requests delta to be the redrawn slice plus those
// injected requests, its served (Latency.Count()) and Dropped deltas to
// add up to the Requests delta, and its Spilled delta within the served.
type requestCheck struct {
	gen *traffic.Generator
	buf []int64
	due int64
	// The router's counters after the last checked epoch.
	requests, served, dropped, spilled int64
}

// newRequestCheck returns the check for e, or nil when e routes no traffic.
func newRequestCheck(e *Engine) (*requestCheck, error) {
	if e.cfg.Traffic == nil {
		return nil, nil
	}
	tcfg := *e.cfg.Traffic
	if tcfg.Seed == 0 {
		tcfg.Seed = e.cfg.Seed
	}
	sources := make([]traffic.Source, len(e.sites))
	for i, s := range e.sites {
		sources[i] = traffic.Source{City: s.City, Weight: e.demandW[i], Lon: s.Location.Lon}
	}
	gen, err := traffic.NewGenerator(tcfg, e.start, sources)
	if err != nil {
		return nil, err
	}
	return &requestCheck{gen: gen}, nil
}

func (c *requestCheck) before(e *Engine) {
	c.due = 0
	for _, p := range e.inReqs {
		if p.epoch <= e.epoch {
			c.due += p.n
		}
	}
}

func (c *requestCheck) check(epoch int, st *router.Stats) error {
	var generated int64
	c.buf = c.gen.AppendSlice(c.buf[:0], epoch)
	for _, n := range c.buf {
		generated += n
	}
	requests, served, dropped, spilled := st.Requests-c.requests, st.Latency.Count()-c.served, st.Dropped-c.dropped, st.Spilled-c.spilled
	c.requests, c.served, c.dropped, c.spilled = st.Requests, st.Latency.Count(), st.Dropped, st.Spilled
	switch {
	case requests != generated+c.due:
		return fmt.Errorf("router took %d requests, the epoch generated %d and %d injected ones were due", requests, generated, c.due)
	case served+dropped != requests:
		return fmt.Errorf("router took %d requests, served %d and dropped %d", requests, served, dropped)
	case spilled > served:
		return fmt.Errorf("router spilled %d requests but served %d", spilled, served)
	}
	return nil
}

// runChecked steps cfg to completion and, after every epoch, runs
// checkPhysical, checkLive, checkClassRows, checkClocks and checkPlacementCounts
// (the counts on the result as Finish folds it), and on a traffic config
// requestCheck too; it fails at the first epoch that breaks any of them.
// setup runs on the new engine before its first Step.
func runChecked(t *testing.T, cfg Config, w *World, setup ...func(*Engine) error) *Result {
	t.Helper()
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		if err := f(e); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := newRequestCheck(e)
	if err != nil {
		t.Fatal(err)
	}
	var bad error
	peak, views := 0, 0
	start := readClocks(e)
	prev := start
	for !e.Done() && bad == nil {
		if reqs != nil {
			reqs.before(e)
		}
		epoch := e.Epoch()
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, e.live.len())
		if err := checkPhysical(e); err != nil && bad == nil {
			bad = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		if err := checkLive(e); err != nil && bad == nil {
			bad = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		res := e.Finish()
		if err := checkPlacementCounts(res); err != nil && bad == nil {
			bad = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		// Before readClocks: the check's own views advance viewGen, and
		// the vacuity test below discounts them.
		n, err := checkClassRows(e)
		views += n
		if err != nil && bad == nil {
			bad = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		cur := readClocks(e)
		if err := checkClocks(prev, cur); err != nil && bad == nil {
			bad = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		prev = cur
		if reqs != nil {
			if err := reqs.check(epoch, res.Traffic); err != nil && bad == nil {
				bad = fmt.Errorf("epoch %d: %w", epoch, err)
			}
		}
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if peak == 0 {
		t.Fatal("no epoch had a live app: the check is vacuous")
	}
	if views == 0 {
		t.Fatal("no app template was ever bound: the class-row check is vacuous")
	}
	if prev.epoch <= start.epoch || prev.viewGen-uint64(views) <= start.viewGen {
		t.Fatalf("clocks never advanced (%+v to %+v, %d views of the row check): the clock check is vacuous", start, prev, views)
	}
	if reqs != nil && reqs.requests == 0 {
		t.Fatal("no request was routed: the request check is vacuous")
	}
	return e.Finish()
}

// TestEpochsPhysicalGolden holds every golden configuration to the
// epoch invariants, and each cold one that redeploys warm as well (warm
// changes nothing without redeploys).
func TestEpochsPhysicalGolden(t *testing.T) {
	w := testWorld(t)
	cases := goldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := cases[name]
		t.Run(name, func(t *testing.T) { runChecked(t, cfg, w) })
		if cfg.RedeployEveryHours > 0 && !cfg.WarmRedeploy {
			cfg.WarmRedeploy = true
			t.Run(name+"/warm", func(t *testing.T) { runChecked(t, cfg, w) })
		}
	}
}

// TestEpochsPhysicalRedeployChurn holds the solver-bound churn shape — a
// redeploy every 6 h over a fleet the cold greedy cannot always repack —
// to the epoch invariants, cold and warm.
func TestEpochsPhysicalRedeployChurn(t *testing.T) {
	w := testWorld(t)
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			cfg := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
			cfg.Hours = 240
			cfg.ArrivalsPerHour = 120
			cfg.AppLifetimeHours = 72
			cfg.RedeployEveryHours = 6
			cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name, energy.OrinNano.Name}
			cfg.WarmRedeploy = warm
			runChecked(t, cfg, w)
		})
	}
}

// TestEpochsPhysicalTrafficInjected runs the golden traffic config with
// cross-shard requests injected at the gateway, some due at epochs that
// have their own demand to route and some large enough to spill and drop,
// so requestCheck counts injected requests on the receiving side. Over the
// run, the router must have taken every generated and every injected
// request.
func TestEpochsPhysicalTrafficInjected(t *testing.T) {
	cfg := goldenCases()["timeline/traffic"]
	var injected int64
	var redraw *requestCheck
	res := runChecked(t, cfg, testWorld(t), func(e *Engine) error {
		for epoch := 5; epoch < cfg.Hours; epoch += 11 {
			n := int64(400 + 1000*(epoch%7))
			if epoch%3 == 0 {
				n *= 200
			}
			if err := e.InjectRequests(epoch, n); err != nil {
				return err
			}
			injected += n
			if epoch%2 == 1 { // two due at one epoch
				if err := e.InjectRequests(epoch, 77); err != nil {
					return err
				}
				injected += 77
			}
		}
		var err error
		redraw, err = newRequestCheck(e)
		return err
	})
	var generated int64
	for epoch := 0; epoch < cfg.Hours; epoch++ {
		for _, n := range redraw.gen.AppendSlice(nil, epoch) {
			generated += n
		}
	}
	if st := res.Traffic; st.Requests != generated+injected {
		t.Errorf("router took %d requests over the run, want %d generated + %d injected", st.Requests, generated, injected)
	}
	if st := res.Traffic; st.Dropped == 0 || st.Spilled == 0 {
		t.Errorf("injection neither dropped nor spilled (dropped %d, spilled %d): too easy", st.Dropped, st.Spilled)
	}
}

// TestPhysicalCatchesStaleWorkspace corrupts one row's server view in
// the placement workspace, as a missed write-through would leave it, and
// expects checkPhysical to name the server; writing the row through
// again (syncRow) clears it.
func TestPhysicalCatchesStaleWorkspace(t *testing.T) {
	w := testWorld(t)
	e, err := NewEngine(shortConfig(carbon.RegionEurope, placement.CarbonAware{}), w)
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < 30 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkPhysical(e); err != nil {
		t.Fatal(err)
	}
	if e.live.len() == 0 {
		t.Fatal("no live app: nothing to corrupt")
	}
	a := e.live.items()[0]
	srv := &e.servers[a.srv]
	for _, tc := range []struct {
		name string
		free cluster.Resources
		on   bool
	}{
		{"departure not written", srv.Free().Add(a.demand), srv.On},
		{"power state not written", srv.Free(), !srv.On},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e.ws.SetServerState(a.srv, tc.free, tc.on)
			err := checkPhysical(e)
			e.syncRow(a.srv)
			if want := fmt.Sprintf("server srv-%d:", a.srv); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("checkPhysical = %v, want an error naming %q", err, want)
			}
			if err := checkPhysical(e); err != nil {
				t.Fatalf("after syncRow: %v", err)
			}
		})
	}
}

// legacyDepartures is the compaction rule stepDepartures replaced, kept
// as its oracle: walk the whole live table, release the departing apps in
// live order and move each survivor down alone once an earlier app has
// departed.
func legacyDepartures(e *Engine, epoch int) {
	live := e.live.items()
	n := 0
	for i := range live {
		a := &live[i]
		if a.expires > epoch {
			if n != i {
				live[n] = *a
			}
			n++
			continue
		}
		e.release(a)
	}
	e.live.truncate(n)
}

// TestDeparturesKeepLiveOrder holds stepDepartures to the legacy rule on
// live tables whose departures are not a prefix, as an eviction or a
// restore leaves them (a re-placed app keeps its departure epoch behind
// later arrivals): the expiries are rewritten and the table re-indexed
// (indexLive), as a restore indexes it. The survivors' order and every
// row's Used and On must be the legacy rule's, the table must keep its
// backing array with its head in the first half, a departed prefix must
// leave the survivors where they were, and the workspace, the late count
// and the pool must match a recount (checkPhysical, checkLive).
func TestDeparturesKeepLiveOrder(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.ServersAlwaysOn = false
	build := func() *Engine {
		e, err := NewEngine(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		for e.Epoch() < 30 {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, tc := range []struct {
		name    string
		departs func(i, n int) bool
		prefix  bool
	}{
		{"prefix", func(i, n int) bool { return i < n/3 }, true},
		{"scattered", func(i, n int) bool { return i%3 == 1 }, false},
		{"prefix then scattered", func(i, n int) bool { return i < 4 || i%5 == 0 }, false},
		{"tail", func(i, n int) bool { return i >= n-3 }, false},
		{"middle run", func(i, n int) bool { return i >= n/3 && i < n/2 }, false},
		{"all", func(i, n int) bool { return true }, true},
		{"none", func(i, n int) bool { return false }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := build(), build()
			epoch := got.Epoch()
			n := got.live.len()
			if n < 10 {
				t.Fatalf("%d live apps: too few to shuffle departures", n)
			}
			k := 0 // departing prefix
			for _, e := range []*Engine{got, want} {
				live := e.live.items()
				for i := range live {
					live[i].expires = epoch + 1 + i%7
					if tc.departs(i, n) {
						live[i].expires = epoch - i%2
					}
				}
				e.indexLive()
			}
			for k < n && tc.departs(k, n) {
				k++
			}
			backing := &got.live.buf[:1][0]
			var firstSurvivor *liveApp
			if k < n {
				firstSurvivor = &got.live.items()[k]
			}
			got.stepDepartures(epoch)
			legacyDepartures(want, epoch)
			if !reflect.DeepEqual(got.live.items(), want.live.items()) {
				t.Fatalf("survivors differ from the legacy rule's (%d vs %d apps)", got.live.len(), want.live.len())
			}
			if &got.live.buf[:1][0] != backing {
				t.Fatal("the live table moved off its backing array")
			}
			if 2*got.live.head > len(got.live.buf) {
				t.Fatalf("head %d past half the %d-row table", got.live.head, len(got.live.buf))
			}
			if tc.prefix && 2*k <= n && firstSurvivor != nil && &got.live.items()[0] != firstSurvivor {
				t.Fatal("a departed prefix moved the survivors")
			}
			for j := range got.servers {
				g, l := &got.servers[j], &want.servers[j]
				if g.Used != l.Used || g.On != l.On {
					t.Fatalf("row %d: Used %v on %t, legacy rule %v on %t", j, g.Used, g.On, l.Used, l.On)
				}
			}
			if err := checkPhysical(got); err != nil {
				t.Fatal(err)
			}
			if err := checkLive(got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// batchObjective is the placement objective (Eq. 7) of a solved batch:
// the policy's pair costs plus the activation cost of every server the
// batch switches on.
func batchObjective(p *placement.Problem, pol placement.Policy, a *placement.Assignment) float64 {
	var sum float64
	for i, j := range a.ServerOf {
		if j >= 0 {
			sum += pol.PairCost(p, i, j)
		}
	}
	for j, s := range p.Servers {
		if a.PowerOn[j] && !s.PoweredOn {
			sum += pol.ActivationCost(p, j)
		}
	}
	return sum
}

// TestServerThatCannotWin is a metamorphic relation on the golden shapes:
// a server no app can use changes no solve. Every 24th epoch of each
// golden config, one app per live app (its shape, fresh) is solved as a
// batch against a copy of the engine's server views, then again with one
// more server appended to the copy: once a clean, empty, powered server
// in a city out of every source's SLO, and once the same with an
// unprofiled device at a source's own site. Each must place every app on
// the same server, switch the same servers on, leave the extra server in
// the power state it started in, and cost the same objective, bit for
// bit.
func TestServerThatCannotWin(t *testing.T) {
	w := testWorld(t)
	cases := goldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := cases[name]
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			const nowhere = "nowhere"
			rtt := func(src, dc string) float64 {
				if dc == nowhere {
					return cfg.RTTLimitMs + 1
				}
				return e.rttOracle(src, dc)
			}
			solve := func(servers []placement.Server, apps []placement.App) (*placement.Problem, *placement.Assignment) {
				ws, err := placement.NewWorkspace(servers, rtt, nil)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ws.Problem(apps)
				if err != nil {
					t.Fatal(err)
				}
				a, err := (&placement.HeuristicSolver{SkipValidate: true}).Solve(p, cfg.Policy)
				if err != nil {
					t.Fatal(err)
				}
				return p, a
			}
			checks := 0
			for !e.Done() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if e.Epoch()%24 != 0 || e.live.len() == 0 {
					continue
				}
				apps := make([]placement.App, e.live.len())
				for i := range e.live.items() {
					a := &e.live.items()[i]
					apps[i] = placement.App{ID: fmt.Sprintf("a%d", i), Model: e.pool.models[a.mi], Source: e.sites[a.srcSite].City,
						SLOms: cfg.RTTLimitMs, RatePerSec: appRatePerSec}
				}
				servers := make([]placement.Server, e.ws.NumServers())
				for j := range servers {
					servers[j] = e.ws.Server(j)
				}
				p, want := solve(servers, apps)
				wantObj := batchObjective(p, cfg.Policy, want)
				proto := servers[0]
				proto.Intensity, proto.BasePowerW = 0, 0
				proto.Free = proto.Free.Scale(1000)
				far, unprofiled := proto, proto
				far.ID, far.DC = "srv-far", nowhere
				unprofiled.ID, unprofiled.DC, unprofiled.Device = "srv-unprofiled", apps[0].Source, "unprofiled"
				for _, extra := range []placement.Server{far, unprofiled} {
					q, got := solve(append(append([]placement.Server(nil), servers...), extra), apps)
					m := len(servers)
					if !reflect.DeepEqual(got.ServerOf, want.ServerOf) || !reflect.DeepEqual(got.PowerOn[:m], want.PowerOn) || got.PowerOn[m] != extra.PoweredOn {
						t.Fatalf("epoch %d, %s appended: the solve moved:\nwithout: %v %v\nwith:    %v %v",
							e.Epoch(), extra.ID, want.ServerOf, want.PowerOn, got.ServerOf, got.PowerOn)
					}
					if obj := batchObjective(q, cfg.Policy, got); obj != wantObj {
						t.Fatalf("epoch %d, %s appended: objective %v, %v without it", e.Epoch(), extra.ID, obj, wantObj)
					}
				}
				checks++
			}
			if checks == 0 {
				t.Fatal("no epoch had a live app to re-solve: the relation is vacuous")
			}
		})
	}
}
