// Command carbonedge runs the CarbonEdge orchestrator as an HTTP service
// over an emulated mesoscale regional testbed (Florida or Central Europe).
// The emulated clock advances in the background so carbon intensity
// evolves while the service runs, and an optional open-loop request
// workload (diurnal, steady, or flash-crowd) is routed across the
// deployments every tick.
//
// Usage:
//
//	carbonedge -region florida -addr :8080 -policy carbon -traffic diurnal -rps 40
//
// Then:
//
//	curl -X POST localhost:8080/api/v1/deployments -d \
//	  '{"name":"demo","model":"ResNet50","source":"Miami","slo_ms":20,"rate_per_sec":10}'
//	curl -X POST localhost:8080/api/v1/place
//	curl localhost:8080/api/v1/metrics
//	curl localhost:8080/api/v1/traffic
//	curl localhost:8080/api/v1/placement   # live solver stats (backend, solve time, candidate sets)
//	curl -X POST localhost:8080/api/v1/faults -d '{"at":"1h","kind":"crash","site":"Miami","for":"6h"}'
//	curl localhost:8080/api/v1/faults      # injection status (pending, applied, evictions, down servers)
//
// A fault scenario can also be loaded at startup (-faults script.txt);
// offsets are relative to service start. Deployments evicted by a crash
// are re-placed automatically on the next tick.
//
// Observability: GET /metrics serves the unified Prometheus-style
// registry and GET /api/v1/obs the tick-phase breakdown plus recent
// fault events. -debug-addr serves net/http/pprof on a separate
// listener (off by default, so profiling endpoints never share the API
// port):
//
//	carbonedge -region florida -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// The service shuts down cleanly on SIGINT/SIGTERM: in-flight requests
// drain and the clock goroutine stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/carbon"
	"repro/internal/events"
	"repro/internal/latency"
	"repro/internal/placement"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		region   = flag.String("region", "florida", "testbed region: florida | centraleu")
		policy   = flag.String("policy", "carbon", "placement policy: carbon | latency | energy | intensity")
		seed     = flag.Int64("seed", 42, "dataset seed")
		timeWarp = flag.Duration("tick", 10*time.Second, "wall-clock interval per emulated hour")
		scenario = flag.String("traffic", "", "open-loop workload scenario: steady | diurnal | flash-crowd (empty = no traffic)")
		rps      = flag.Float64("rps", 40, "aggregate request rate of the attached workload")
		sloMs    = flag.Float64("slo-ms", 40, "end-to-end response-time SLO for routed requests")
		faults   = flag.String("faults", "", "fault scenario script to inject at startup (see internal/events)")
		dbgAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	if err := run(*addr, *dbgAddr, *region, *policy, *scenario, *faults, *seed, *timeWarp, *rps, *sloMs); err != nil {
		log.Fatalf("carbonedge: %v", err)
	}
}

func run(addr, dbgAddr, region, policy, scenario, faultsFile string, seed int64, timeWarp time.Duration, rps, sloMs float64) error {
	// The clock goroutine ticks every timeWarp: time.NewTicker panics on
	// a non-positive interval.
	if timeWarp <= 0 {
		return fmt.Errorf("-tick %v: the interval per emulated hour must be positive", timeWarp)
	}
	var reg testbed.Region
	switch strings.ToLower(region) {
	case "florida":
		reg = testbed.Florida()
	case "centraleu", "central-eu", "eu":
		reg = testbed.CentralEU()
	default:
		return fmt.Errorf("unknown region %q", region)
	}

	var pol placement.Policy
	switch strings.ToLower(policy) {
	case "carbon":
		pol = placement.CarbonAware{}
	case "latency":
		pol = placement.LatencyAware{}
	case "energy":
		pol = placement.EnergyAware{}
	case "intensity":
		pol = placement.IntensityAware{}
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}

	zones, err := carbon.DefaultRegistry(seed)
	if err != nil {
		return err
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		return err
	}
	traces := carbon.NewGenerator(seed).GenerateTraces(zones)

	tb, err := testbed.New(testbed.Config{
		Region: reg, Zones: zones, Traces: traces, Cities: cities, Policy: pol,
	})
	if err != nil {
		return err
	}

	if scenario != "" {
		scn, err := traffic.ScenarioByName(scenario)
		if err != nil {
			return err
		}
		if err := tb.AttachTraffic(traffic.Config{Seed: seed, Scenario: scn, RPS: rps}, sloMs); err != nil {
			return err
		}
		tb.Orch.SetOverloadHandler(func(now time.Time, dropped int64) {
			log.Printf("carbonedge: overload at %s: %d requests dropped", now, dropped)
		})
		log.Printf("carbonedge: %s traffic attached (%.0f rps aggregate, %.0f ms SLO)", scn, rps, sloMs)
	}

	// Evicted deployments are re-placed on the next batch; placing right
	// after the tick that evicted them keeps recovery within one tick.
	tb.Orch.SetEvictionHandler(func(now time.Time, evicted []string) {
		log.Printf("carbonedge: fault evicted %v at %s; re-placing", evicted, now)
		if _, rejected, err := tb.Orch.PlaceBatch(); err != nil {
			log.Printf("carbonedge: re-place after eviction: %v", err)
		} else if len(rejected) > 0 {
			log.Printf("carbonedge: %d evicted deployments unplaceable: %v", len(rejected), rejected)
		}
	})
	if faultsFile != "" {
		text, err := os.ReadFile(faultsFile)
		if err != nil {
			return err
		}
		script, err := events.ParseFaultScript(string(text))
		if err != nil {
			return err
		}
		if err := tb.Orch.InjectScript(script); err != nil {
			return err
		}
		log.Printf("carbonedge: fault scenario loaded (%d faults from %s)", len(script.Faults), faultsFile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Advance the emulated clock: one emulated hour per tick interval,
	// bounded to stay within the trace year, until shutdown.
	clockDone := make(chan struct{})
	go func() {
		defer close(clockDone)
		ticker := time.NewTicker(timeWarp)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if tb.Orch.Now().After(traces.Start.Add(time.Duration(traces.Hours-2) * time.Hour)) {
				log.Printf("carbonedge: trace year exhausted; clock frozen")
				return
			}
			if err := tb.Orch.Tick(time.Hour); err != nil {
				log.Printf("carbonedge: tick: %v", err)
			}
		}
	}()

	srv := &http.Server{Addr: addr, Handler: tb.Orch.API()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	// Debug listener: pprof on its own mux (never the API mux), only
	// when explicitly asked for.
	var dbgSrv *http.Server
	if dbgAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv = &http.Server{Addr: dbgAddr, Handler: dbg}
		go func() {
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("carbonedge: debug listener: %v", err)
			}
		}()
		log.Printf("carbonedge: pprof on http://%s/debug/pprof/", dbgAddr)
	}

	log.Printf("carbonedge: %s testbed (%d DCs), policy %s, listening on %s",
		reg.Name, len(reg.DCs), pol.Name(), addr)

	select {
	case err := <-serveErr:
		stop()
		<-clockDone
		return err
	case <-ctx.Done():
	}

	log.Printf("carbonedge: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if dbgSrv != nil {
		_ = dbgSrv.Shutdown(shutdownCtx)
	}
	<-clockDone
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown timed out: %w", err)
	}
	return err
}
