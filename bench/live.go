package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// shardWorkers is sharded_x4's worker-pool size.
func shardWorkers() int { return min(4, runtime.GOMAXPROCS(0)) }

// shardedBase is redeploy_churn's cold config at 336 h plus flash-crowd
// traffic and a 24 h crash of the heaviest site at hour 72 (the sharded
// experiment family's shape).
func (rc *runCtx) shardedBase() sim.Config {
	cfg := rc.churnConfig(336)
	cfg.Traffic = rc.traffic(traffic.FlashCrowd, 700)
	cities, _ := heaviestSites(rc.world, cfg)
	h := func(full int) time.Duration { return time.Duration(max(1, full*cfg.Hours/336)) * time.Hour }
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: h(72), Kind: events.FaultCrash, Site: cities[0], For: h(24)},
	}}
	return cfg
}

// runSharded drives one coordinator to the end, one span per round in
// the traced pass.
func (rc *runCtx) runSharded(r *rep, shards, workers int) (*shard.Coordinator, error) {
	base := rc.shardedBase()
	if rc.rec != nil {
		base.Obs = tracerOnly
	}
	id := rc.rec.begin("shard.New")
	t0 := time.Now()
	c, err := shard.New(shard.Config{Base: base, Shards: shards, Exchange: shards > 1, Workers: workers}, rc.world)
	r.ctor += time.Since(t0)
	r.ctors++
	newT := rc.rec.end(id)
	if err != nil {
		return nil, err
	}
	r.hold = append(r.hold, c)

	var rounds []time.Duration
	r.start()
	for !c.Done() {
		id := rc.rec.begin("shard.RunRound")
		err := r.op(c.RunRound())
		if rc.rec != nil {
			rounds = append(rounds, rc.rec.end(id))
		}
		if err != nil {
			return nil, err
		}
		r.cal.tick()
	}
	id = rc.rec.begin("shard.MergedState")
	merged, err := c.MergedState()
	mergeT := rc.rec.end(id)
	r.stop()
	if r.op(err) != nil {
		return nil, err
	}
	r.epochs += base.Hours
	r.states = append(r.states, merged)
	r.carbonG += merged.CarbonG
	r.placed += merged.Placed
	r.unplaced += merged.Unplaced
	r.solve += time.Duration(merged.SolveTimeNs)
	if t := merged.Traffic; t != nil {
		r.requests += t.Requests
		r.sloMet += t.SLOMet
		r.check("traffic_attempt_complete", t.Requests > 0 && t.SLOMet+t.Dropped <= t.Requests,
			"requests=%d slo_met=%d dropped=%d", t.Requests, t.SLOMet, t.Dropped)
	}

	if rc.rec != nil {
		r.layer.host("shard.round_p50_ms", "ms", quantile(durations(rounds, ms), 0.5))
		r.layer.host("shard.round_p99_ms", "ms", quantile(durations(rounds, ms), 0.99))
		r.layer.host("shard.merge_ms", "ms", ms(mergeT))
		r.layer.host("shard.new_ms", "ms", ms(newT))
		st := c.Stats()
		r.layer.count("shard.apps_forwarded", "count", float64(st.AppsForwarded))
		r.layer.count("shard.spill_requests", "count", float64(st.SpillRequests))
		phases, err := c.MergedPhases()
		if err != nil {
			return nil, err
		}
		phaseShares(r.layer, "shard", phases, 0)
	}
	return c, nil
}

// phaseShares reports each phase's share of total (of the phases' own
// sum when total is 0, which is CPU share when phases ran on several
// workers).
func phaseShares(m *metrics, layer string, phases []obs.PhaseStat, total time.Duration) {
	sum := float64(total)
	if total == 0 {
		for _, p := range phases {
			sum += float64(p.TotalNs)
		}
	}
	for _, p := range phases {
		m.host(layer+".phase."+p.Name+".share_pct", "%", pct(float64(p.TotalNs), sum))
	}
}

func runShardedX4(rc *runCtx) (*rep, error) {
	r := newRep()
	workers := shardWorkers()
	if rc.serial {
		workers = 1
	}
	if _, err := rc.runSharded(r, 4, workers); err != nil {
		return nil, err
	}
	if rc.rec != nil {
		// Scaling is taken untraced: the same spec at one worker, and
		// unsharded, against the parallel run.
		plain := *rc
		plain.rec = nil
		wall := func(shards, workers int) (time.Duration, error) {
			x := newRep()
			_, err := plain.runSharded(x, shards, workers)
			r.attempted += x.attempted
			r.failed += x.failed
			return x.wall, err
		}
		par, err := wall(4, workers)
		if err != nil {
			return nil, err
		}
		ser, err := wall(4, 1)
		if err != nil {
			return nil, err
		}
		one, err := wall(1, 1)
		if err != nil {
			return nil, err
		}
		r.layer.host("shard.parallel_speedup_x", "x", ser.Seconds()/par.Seconds())
		r.layer.host("shard.parallel_base_ms", "ms", ms(ser))
		r.layer.host("shard.decomposition_speedup_x", "x", one.Seconds()/ser.Seconds())
		r.layer.host("shard.decomposition_base_ms", "ms", ms(one))
	}
	return r, r.seal()
}

// orchIterations is how many deploy/place/tick/scrape/delete rounds one
// orchestrator_live rep makes.
func (rc *runCtx) orchIterations() int {
	if rc.quick {
		return 10
	}
	return 300
}

// liveClient is the one closed-loop HTTP client of orchestrator_live.
type liveClient struct {
	base string
	c    *http.Client
	r    *rep
	rec  *recorder
}

// call makes one request and counts it as failed unless the status is
// exactly want. The body is always drained so the connection is reused.
func (lc *liveClient) call(name, method, path, body string, want int, out any) time.Duration {
	id := lc.rec.begin(name)
	t0 := time.Now()
	err := func() error {
		req, err := http.NewRequest(method, lc.base+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := lc.c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != want {
			return fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
		if out != nil {
			return json.Unmarshal(b, out)
		}
		return nil
	}()
	d := time.Since(t0)
	lc.rec.end(id)
	_ = lc.r.op(err)
	lc.r.cal.tick()
	return d
}

func runOrchestratorLive(rc *runCtx) (*rep, error) {
	r := newRep()
	id := rc.rec.begin("testbed.New")
	t0 := time.Now()
	region := testbed.Florida()
	tb, err := testbed.New(testbed.Config{
		Region: region, Zones: rc.world.Zones, Traces: rc.world.Traces, Cities: rc.world.Cities,
		Policy: placement.CarbonAware{},
	})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(tb.Orch.API())
	defer srv.Close()
	r.ctor += time.Since(t0)
	r.ctors++
	rc.rec.end(id)
	if err := tb.AttachTraffic(*rc.traffic(traffic.Diurnal, 15), 40); err != nil {
		return nil, err
	}
	r.hold = append(r.hold, tb)
	lc := &liveClient{base: srv.URL, c: srv.Client(), r: r, rec: rc.rec}

	var (
		deployT, metricsT, promT, deleteT, ticks []time.Duration
		submitted, placed, live                  int
		mets                                     struct {
			CarbonTotalG float64 `json:"carbon_total_g"`
			Deployments  int     `json:"deployments"`
		}
		traf struct {
			Totals struct {
				Requests int64 `json:"requests"`
				SLOMet   int64 `json:"slo_met"`
				Dropped  int64 `json:"dropped"`
			} `json:"totals"`
		}
		countOK = true
	)
	n := rc.orchIterations()
	name := func(iter int, city string) string { return fmt.Sprintf("app-%04d-%s", iter, city) }
	r.start()
	for i := 0; i < n; i++ {
		for _, dc := range region.DCs {
			body := fmt.Sprintf(`{"name":%q,"model":"ResNet50","source":%q,"slo_ms":20,"rate_per_sec":2}`, name(i, dc.City), dc.City)
			deployT = append(deployT, lc.call("http.deploy", "POST", "/api/v1/deployments", body, http.StatusAccepted, nil))
		}
		submitted += len(region.DCs)
		var batch struct {
			Placed   []json.RawMessage `json:"placed"`
			Rejected []string          `json:"rejected"`
		}
		r.placeRTT = append(r.placeRTT, lc.call("http.place", "POST", "/api/v1/place", "", http.StatusOK, &batch))
		placed += len(batch.Placed)
		live += len(batch.Placed)
		for k := 0; k < 24; k++ {
			id := rc.rec.begin("orchestrator.Tick")
			err := r.op(tb.Orch.Tick(time.Hour))
			if rc.rec != nil {
				ticks = append(ticks, rc.rec.end(id))
			}
			if err != nil {
				return nil, err
			}
			r.cal.tick()
		}
		metricsT = append(metricsT, lc.call("http.metrics", "GET", "/api/v1/metrics", "", http.StatusOK, &mets))
		promT = append(promT, lc.call("http.prom_scrape", "GET", "/metrics", "", http.StatusOK, nil))
		lc.call("http.traffic", "GET", "/api/v1/traffic", "", http.StatusOK, &traf)
		countOK = countOK && mets.Deployments == live
		if i >= 3 {
			for _, dc := range region.DCs {
				deleteT = append(deleteT, lc.call("http.delete", "DELETE", "/api/v1/deployments/"+name(i-3, dc.City), "", http.StatusNoContent, nil))
				live--
			}
		}
	}
	r.stop()
	r.epochs = 24 * n
	r.check("placed_equals_submitted", placed == submitted, "placed %d of %d", placed, submitted)
	r.check("deployments_match_live_set", countOK, "/api/v1/metrics deployments diverged from the live set (last %d, live %d)", mets.Deployments, live)
	r.check("traffic_attempt_complete", traf.Totals.Requests > 0 && traf.Totals.SLOMet+traf.Totals.Dropped <= traf.Totals.Requests,
		"traffic totals %+v", traf.Totals)

	r.carbonG = mets.CarbonTotalG
	r.placed, r.unplaced = placed, submitted-placed
	r.requests, r.sloMet = traf.Totals.Requests, traf.Totals.SLOMet
	// The control plane has no ResultState; its digest covers what the
	// last scrape saw.
	if r.digest, err = digestJSON(mets, placed, traf); err != nil {
		return nil, err
	}

	if rc.rec != nil {
		r.layer.host("orchestrator.tick_p50_us", "us", quantile(durations(ticks, us), 0.5))
		r.layer.host("orchestrator.tick_p99_us", "us", quantile(durations(ticks, us), 0.99))
		r.layer.host("orchestrator.http_deploy_us", "us", median(durations(deployT, us)))
		r.layer.host("orchestrator.http_place_p99_ms", "ms", quantile(durations(r.placeRTT, ms), 0.99))
		r.layer.host("orchestrator.http_metrics_us", "us", median(durations(metricsT, us)))
		r.layer.host("orchestrator.http_prom_scrape_us", "us", median(durations(promT, us)))
		r.layer.host("orchestrator.http_delete_us", "us", median(durations(deleteT, us)))
		phaseShares(r.layer, "orchestrator", tb.Orch.PhaseReport(), 0)
	}
	return r, nil
}
