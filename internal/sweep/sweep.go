// Package sweep runs declared grids of simulations (and other indexed
// workloads) on a bounded worker pool. Experiments declare the full grid
// up front — every (region x policy x scenario) point — and the runner
// executes the points concurrently against one shared immutable
// sim.World. Each point owns its RNG (seeded from its config), so results
// are bit-identical regardless of worker count, and they are returned in
// grid order.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultParallel is the worker count used when a grid or Map call does
// not specify one.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// Map runs fn(0..n-1) on a pool of parallel workers and returns the
// results in index order. parallel <= 0 uses DefaultParallel. The first
// error encountered (by lowest index) is returned; later indices may or
// may not have run. fn must be safe for concurrent invocation across
// distinct indices.
func Map[T any](parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if parallel > n {
		parallel = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	if parallel == 1 {
		// Serial fast path: run in order, stop at the first error.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	failed := false
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failed || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				v, err := fn(i)

				mu.Lock()
				if err != nil {
					errs[i] = err
					failed = true
				} else {
					out[i] = v
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Point is one cell of a simulation grid: a config plus a label for
// rendering and error attribution.
type Point struct {
	// Key identifies the point (e.g. "US/CarbonEdge/limit=10").
	Key string
	// Config is the simulation to run. Each point's Seed drives its own
	// RNG, so per-point determinism is independent of worker count.
	Config sim.Config
}

// Grid declares a sweep of simulation runs against one shared world.
type Grid struct {
	// World is the shared immutable dataset; it is never mutated by runs.
	World *sim.World
	// Points is the declared grid, in the order results are returned.
	Points []Point
	// Parallel is the worker-pool size (<= 0 = DefaultParallel).
	Parallel int
	// Journal, when set, is the path of the grid's resume journal:
	// completed points are appended as they finish, and a re-run against
	// an existing journal skips them, re-running only the incomplete
	// points and stitching results back in grid order — bit-identical to
	// an uninterrupted run. The journal header pins the declared grid
	// (keys and config signatures); a journal written for a different
	// grid is rejected. Journaled grids require unique point keys.
	Journal string
	// Trace, when set, aggregates every executed point's per-phase
	// timings into one tracer (build it with sim.NewPhaseTracer). Points
	// that do not already opt into observability are traced for it;
	// points replayed from a journal contribute nothing (they did not
	// run). Merging is atomic, so one tracer may be
	// shared across grids and workers.
	Trace *obs.Tracer
}

// Add appends a point to the grid.
func (g *Grid) Add(key string, cfg sim.Config) {
	g.Points = append(g.Points, Point{Key: key, Config: cfg})
}

// runPoint executes one grid point to completion.
func (g *Grid) runPoint(i int) (*sim.Result, error) {
	p := g.Points[i]
	if g.Trace != nil && p.Config.Obs == nil {
		// Trace this point for the grid aggregate.
		p.Config.Obs = &obs.Config{}
	}
	e, err := sim.NewEngine(p.Config, g.World)
	if err != nil {
		return nil, fmt.Errorf("sweep: point %q: %w", p.Key, err)
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			return nil, fmt.Errorf("sweep: point %q: %w", p.Key, err)
		}
	}
	res := e.Finish()
	if g.Trace != nil && e.Tracer() != nil {
		if err := g.Trace.Merge(e.Tracer()); err != nil {
			return nil, fmt.Errorf("sweep: point %q: %w", p.Key, err)
		}
	}
	return res, nil
}

// Run executes every point and returns the results in grid order. With
// Journal set, completed points recorded there are replayed instead of
// re-run (see the field doc).
func (g *Grid) Run() ([]*sim.Result, error) {
	if g.Journal != "" {
		return g.runJournaled()
	}
	return Map(g.Parallel, len(g.Points), g.runPoint)
}

// RunMap executes every point and returns the results keyed by Point.Key.
// Keys must be unique; duplicates are rejected before any simulation runs.
func (g *Grid) RunMap() (map[string]*sim.Result, error) {
	seen := make(map[string]bool, len(g.Points))
	for _, p := range g.Points {
		if seen[p.Key] {
			return nil, fmt.Errorf("sweep: duplicate point key %q", p.Key)
		}
		seen[p.Key] = true
	}
	res, err := g.Run()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*sim.Result, len(res))
	for i, r := range res {
		out[g.Points[i].Key] = r
	}
	return out, nil
}
