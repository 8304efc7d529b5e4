// Package experiments regenerates every table and figure in the paper's
// evaluation (Figures 1-5, Table 1, Figures 7-17, and the §6.5 overhead
// numbers), plus the ablations called out in DESIGN.md. Each experiment is
// a function on Suite returning a structured result with a text rendering
// that mirrors the paper's rows/series; the cesim command prints them and
// the root bench harness reports their headline metrics.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/carbon"
	"repro/internal/deploy"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Suite carries the shared datasets: the 148-zone registry with year
// traces, the city registry, and the integrated CDN deployment.
type Suite struct {
	Seed int64
	// CDNHours bounds the CDN simulations (8760 = the paper's year;
	// benches use shorter spans).
	CDNHours int
	// Parallel is the worker-pool size simulation grids run on
	// (<= 0 = GOMAXPROCS). Results are deterministic regardless of its
	// value: every grid point owns its RNG.
	Parallel int
	World    *sim.World
	// CheckpointDir, when set, roots resumable state: every simulation
	// grid an experiment declares gets a sweep journal under this
	// directory (named <experiment>-grid<N>.journal by declaration
	// order), and the longhaul experiment writes its hourly engine
	// checkpoints there.
	CheckpointDir string
	// Resume reuses existing journals in CheckpointDir — completed grid
	// points are stitched in without re-running. When false, stale
	// journals are removed so every run starts fresh.
	Resume bool
	// Shards caps the worker-goroutine pool the sharded experiment
	// family steps its shard engines on (<= 1 = serial lock-step). It
	// never changes which shard counts the family sweeps or what their
	// tables contain — sharded results are deterministic across any
	// worker count — only how the rounds are scheduled.
	Shards int
	// Obs enables per-phase observability: every simulation grid an
	// experiment runs is traced, the per-point tracers merge into one
	// per-experiment aggregate, and RunReport attaches it (plus process
	// memory telemetry) to the Report. Tracing never changes results —
	// sim.Config.Obs is excluded from checkpoint signatures, so journaled
	// grids resume identically with it on or off.
	Obs bool

	// Journal naming state: RunReport pins the active experiment ID, and
	// grids within one experiment number themselves in declaration order
	// (deterministic, so a resumed process maps journals back to the
	// same grids). phaseTrace is the active experiment's tracer aggregate
	// (nil unless Obs).
	mu         sync.Mutex
	exp        string
	gridSeq    int
	phaseTrace *obs.Tracer
}

// beginExperiment resets the journal-naming state (and, with Obs on, the
// phase-trace aggregate) for one experiment.
func (s *Suite) beginExperiment(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exp, s.gridSeq = id, 0
	s.phaseTrace = nil
	if s.Obs {
		s.phaseTrace = sim.NewPhaseTracer()
	}
}

// gridTrace returns the active experiment's tracer aggregate (nil unless
// Obs).
func (s *Suite) gridTrace() *obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phaseTrace
}

// checkpointPath resolves a file under CheckpointDir ("" when
// checkpointing is off).
func (s *Suite) checkpointPath(name string) string {
	if s.CheckpointDir == "" {
		return ""
	}
	s.mu.Lock()
	exp := s.exp
	s.mu.Unlock()
	if exp != "" {
		name = exp + "-" + name
	}
	return filepath.Join(s.CheckpointDir, name)
}

// NewSuite builds the shared world for CDN simulations of the given span
// in hours (8760 is the paper's year); a span under one hour is refused.
func NewSuite(seed int64, hours int) (*Suite, error) {
	if hours < 1 {
		return nil, fmt.Errorf("experiments: a CDN span of %d hours: need at least 1", hours)
	}
	w, err := sim.NewWorld(seed)
	if err != nil {
		return nil, err
	}
	return &Suite{Seed: seed, CDNHours: hours, World: w}, nil
}

// newGrid starts an empty simulation grid over the shared world at the
// suite's parallelism. With CheckpointDir set, the grid is journaled:
// completed points persist as they finish and a resumed run (Resume)
// skips them.
func (s *Suite) newGrid() *sweep.Grid {
	g := &sweep.Grid{World: s.World, Parallel: s.Parallel, Trace: s.gridTrace()}
	if s.CheckpointDir != "" {
		s.mu.Lock()
		n := s.gridSeq
		s.gridSeq++
		s.mu.Unlock()
		g.Journal = s.checkpointPath(fmt.Sprintf("grid%02d.journal", n))
		if !s.Resume {
			os.Remove(g.Journal)
		}
	}
	return g
}

// mapN runs fn over n indices on the suite's worker pool, results in
// index order (sweep.Map at the suite's parallelism).
func mapN[T any](s *Suite, n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep.Map(s.Parallel, n, fn)
}

// Zones is shorthand for the zone registry.
func (s *Suite) Zones() *carbon.Registry { return s.World.Zones }

// Traces is shorthand for the trace set.
func (s *Suite) Traces() *carbon.TraceSet { return s.World.Traces }

// Cities is shorthand for the city registry.
func (s *Suite) Cities() *latency.CityRegistry { return s.World.Cities }

// Dep is shorthand for the CDN deployment.
func (s *Suite) Dep() *deploy.Deployment { return s.World.Dep }

// table renders rows of label/value pairs with aligned columns.
func table(header string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n")
	widths := map[int]int{}
	for _, r := range rows {
		for c, cell := range r {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, r := range rows {
		for c, cell := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[c], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
