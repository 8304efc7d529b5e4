// Command bench is CarbonEdge's performance ledger: seven workloads
// driven through the program's public API, each reporting end-to-end
// metrics from untraced reps and per-layer metrics from one traced rep
// plus direct layer probes, with the correctness checks in the same
// run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupBuilds is how many cold worlds setup_s is the median of.
const setupBuilds = 5

// datasetSeed builds the world every workload runs in: the zone
// registry, carbon traces, cities and CDN deployment are the dataset
// (the repo's experiments all use 42), not a workload input. -seed draws
// what arrives in that world: sim.Config.Seed and traffic.Config.Seed.
// With the world drawn from -seed too, carbon_kg moved by up to 28%
// between seeds (checkpoint_resume), so it measured the draw of the
// grid and not the program.
const datasetSeed = 42

// bench is one invocation's settings and shared inputs.
type bench struct {
	seed    int64
	reps    int
	seconds float64
	quick   bool
	// trace selects the passes: 0 untraced only, 1 traced (after three
	// untraced baseline reps) and probes only, -1 both.
	trace int
	out   string

	world      *sim.World
	worldBuild []time.Duration
	stdout     io.Writer
}

// env records where the numbers were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Git        string `json:"git"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
}

// results is the schema of results.json.
type results struct {
	Env       env               `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
	// Probes are the workload-independent per-layer metrics.
	Probes map[string]value `json:"probes,omitempty"`
}

type workloadResult struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Reps      int              `json:"reps"`
	Digest    string           `json:"digest"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Checks    []check          `json:"checks"`

	e2e, layer *metrics
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	b := &bench{stdout: stdout}
	fs.Int64Var(&b.seed, "seed", 42, "seed for sim.Config.Seed and traffic.Config.Seed (arrivals and requests; the world is fixed)")
	name := fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all seven)")
	fs.IntVar(&b.reps, "reps", 0, "timed reps per workload (default: the workload's own count)")
	fs.Float64Var(&b.seconds, "seconds", 0, "keep making timed reps until this many seconds have passed (at least 5 reps)")
	fs.BoolVar(&b.quick, "quick", false, "smoke run: 48 simulated hours, 10 orchestrator iterations, 1 rep, 3 probe calls")
	fs.IntVar(&b.trace, "trace", -1, "0: untraced reps only (end-to-end metrics); 1: traced rep and probes only (per-layer metrics); default both")
	fs.StringVar(&b.out, "out", "", "directory for results.json and trace-<workload>.json (default bench/out)")
	compare := fs.Bool("compare", false, "compare two results.json files (arguments) against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results.json files"))
		}
		if ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		} else if !ok {
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
	}
	root := findRoot()
	if b.out == "" {
		b.out = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return fail(err)
	}

	if err := b.setup(); err != nil {
		return fail(err)
	}
	res := &results{Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Git: gitRevision(), Seed: b.seed, Quick: b.quick,
	}}
	failed := 0
	for i := range selected {
		wr, err := b.runWorkload(&selected[i])
		if err != nil {
			return fail(fmt.Errorf("%s: %w", selected[i].name, err))
		}
		res.Workloads = append(res.Workloads, wr)
		failed += wr.Failed
		b.print(wr.Name, wr.e2e)
		b.print(wr.Name, wr.layer)
		for _, c := range wr.Checks {
			if !c.OK {
				fmt.Fprintf(stderr, "bench: %s: check %s failed: %s\n", wr.Name, c.Name, c.Note)
			}
		}
		fmt.Fprintf(stdout, "%s digest %s reps %d attempted %d failed %d\n", wr.Name, wr.Digest, wr.Reps, wr.Attempted, wr.Failed)
		runtime.GC()
		debug.FreeOSMemory()
	}
	probes := newMetrics()
	if b.trace != 0 {
		var err error
		if probes, err = runProbes(&runCtx{world: b.world, seed: b.seed, quick: b.quick}); err != nil {
			return fail(fmt.Errorf("probes: %w", err))
		}
		res.Probes = probes.byKey
		b.print("probe", probes)
	}
	if err := writeJSON(filepath.Join(b.out, "results.json"), res); err != nil {
		return fail(err)
	}
	if *name != "" {
		if err := b.contractLine(root, res.Workloads[0], probes); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// setup builds setupBuilds cold worlds (datasetSeed+i: a same-seed
// rebuild could share carbon-memo entries no first run sees) and keeps
// the first. Build times are at reference speed (see calibrated), on one
// P like the workloads.
func (b *bench) setup() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := setupBuilds
	if b.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		var w *sim.World
		d, err := calibrated(func() (err error) {
			w, err = sim.NewWorld(datasetSeed + int64(i))
			return err
		})
		if err != nil {
			return err
		}
		b.worldBuild = append(b.worldBuild, d)
		if i == 0 {
			b.world = w
		}
	}
	return nil
}

func tracedReps(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// repPlan is how many timed untraced reps to make: at least min, and
// more until the seconds are spent.
func (b *bench) repPlan(w *workload) (atLeast int, seconds float64) {
	switch {
	case b.quick:
		return 1, 0
	case b.reps > 0:
		return b.reps, 0
	case b.trace == 1:
		return 3, 0
	case b.seconds > 0:
		return 5, b.seconds
	}
	return w.reps, 0
}

func (b *bench) runWorkload(w *workload) (*workloadResult, error) {
	wr := &workloadResult{Name: w.name, Why: w.why, e2e: newMetrics(), layer: newMetrics()}
	rc := runCtx{world: b.world, seed: b.seed, quick: b.quick}
	if !w.parallel {
		// One goroutine drives the workload, so it gets one P: on a second
		// one the collector's workers and the HTTP server's wake-ups land
		// on the other vCPU, which in this sandbox slows the driving thread
		// by a third and is the least repeatable part of a run.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	stable := true
	observe := func(r *rep) {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		stable = stable && (wr.Digest == "" || r.digest == wr.Digest)
		if wr.Digest == "" {
			// The first rep's checks are listed in full, later reps add
			// only what failed.
			wr.Digest = r.digest
			wr.Checks = r.checks
			return
		}
		for _, c := range r.checks {
			if !c.OK {
				wr.Checks = append(wr.Checks, c)
			}
		}
	}
	if !b.quick {
		// Untimed warm-up; sharded_x4 runs it on one worker, so the
		// digest check below also proves Workers=1 equals Workers=N.
		warm := rc
		warm.serial = true
		r, err := w.run(&warm)
		if err != nil {
			return nil, err
		}
		observe(r)
	}

	var (
		eps, raw, slow   []float64
		ctor, walls      []float64
		rtts, rttMedians []float64
		last             *rep
	)
	atLeast, seconds := b.repPlan(w)
	for start := time.Now(); wr.Reps < atLeast || time.Since(start).Seconds() < seconds; wr.Reps++ {
		r, err := w.run(&rc)
		if err != nil {
			return nil, err
		}
		observe(r)
		eps = append(eps, float64(r.epochs)/r.ref())
		raw = append(raw, float64(r.epochs)/r.wall.Seconds())
		slow = append(slow, r.cal.slowdown())
		walls = append(walls, r.ref())
		ctor = append(ctor, r.ctor.Seconds())
		if len(r.placeRTT) > 0 {
			// Round trips too are at reference speed, by their rep's
			// slowdown.
			rep := durations(r.placeRTT, ms)
			for i := range rep {
				rep[i] /= r.cal.slowdown()
			}
			rtts = append(rtts, rep...)
			rttMedians = append(rttMedians, median(rep))
		}
		last = r
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(last.hold)

	setup := make([]float64, len(b.worldBuild))
	for i, d := range b.worldBuild {
		setup[i] = d.Seconds() + median(ctor)
	}
	e := wr.e2e
	e.host("setup_s", "s", setup...)
	e.host("epochs_per_s", "epochs/s", eps...)
	e.host("live_heap_mb", "MB", float64(mem.HeapAlloc)/(1<<20))
	e.simulated("carbon_kg", "kg", last.carbonG/1000)
	offered := float64(last.placed + last.unplaced)
	e.simulated("placed_pct", "%", pct(float64(last.placed), offered))
	e.simulated("unplaced_pct", "%", pct(float64(last.unplaced), offered))
	if last.requests > 0 {
		e.simulated("slo_attainment_pct", "%", pct(float64(last.sloMet), float64(last.requests)))
	}
	e.merge(last.extra)
	wr.layer.host("host.slowdown_x", "x", slow...)
	wr.layer.host("host.epochs_per_s_raw", "epochs/s", raw...)
	if len(rtts) > 0 {
		v := value{Unit: "ms", Kind: kindHost, Value: median(rtts), Samples: rttMedians}
		v.Q1, v.Q3 = quantile(rttMedians, 0.25), quantile(rttMedians, 0.75)
		e.put("place_rtt_p50_ms", v)
		e.count("place_rtt_samples", "count", float64(len(rtts)))
	}

	if b.trace != 0 {
		// Three traced reps: the layer split is read from the last, the
		// overhead from their median wall against the untraced median (one
		// rep against a median says more about the box than the tracer).
		rc.rec = newRecorder()
		var (
			traced         *rep
			tracedWalls    []float64
			mallocs, bytes uint64
		)
		for i := 0; i < tracedReps(b.quick); i++ {
			rc.rec.rep = wr.Reps + i
			var err error
			mallocs, bytes, err = memDelta(func() (err error) {
				traced, err = w.run(&rc)
				return err
			})
			if err != nil {
				return nil, err
			}
			observe(traced)
			tracedWalls = append(tracedWalls, traced.ref())
		}
		l := wr.layer
		if len(traced.steps) > 0 {
			simLayer(l, traced)
			l.host("sim.allocs_per_epoch", "count", float64(mallocs)/float64(traced.epochs))
			l.host("sim.alloc_mb_per_run", "MB", float64(bytes)/(1<<20))
		}
		l.host("obs.trace_overhead_pct", "%", (median(tracedWalls)/median(walls)-1)*100)
		l.merge(traced.layer)
		if err := rc.rec.write(filepath.Join(b.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	// One check covers every rep: warm-up (serial workers), timed and
	// traced reps must all produce the same digest.
	c := check{Name: "digest_stable", OK: stable}
	wr.Attempted++
	if !stable {
		c.Note = "reps (warm-up, timed, traced) disagree on the result digest"
		wr.Failed++
	}
	wr.Checks = append(wr.Checks, c)
	e.count("ops_failed_pct", "%", pct(float64(wr.Failed), float64(wr.Attempted)))
	wr.EndToEnd, wr.PerLayer = e.byKey, wr.layer.byKey
	return wr, nil
}

// memDelta reads the allocator counters around fn.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// simLayer splits the traced rep's Step time over the engine tracer's
// phases; what the phases do not cover is the dispatch loop's own time.
func simLayer(l *metrics, r *rep) {
	var stepTotal time.Duration
	for _, d := range r.steps {
		stepTotal += d
	}
	phases := r.phases.Report()
	phaseShares(l, "sim", phases, stepTotal)
	covered := int64(0)
	for _, p := range phases {
		l.host("sim.phase."+p.Name+".ns_per_call", "ns", float64(p.MeanNs()))
		covered += p.TotalNs
	}
	l.host("sim.dispatch_self_share_pct", "%", pct(float64(int64(stepTotal)-covered), float64(stepTotal)))
	l.host("sim.step_p50_ms", "ms", quantile(durations(r.steps, ms), 0.5))
	l.host("sim.step_p99_ms", "ms", quantile(durations(r.steps, ms), 0.99))
	l.host("sim.solve_share_pct", "%", pct(float64(r.solve), float64(r.wall)))
	l.host("sim.new_engine_ms", "ms", ms(r.ctor)/float64(r.ctors))
}

// print writes one "workload name unit value" line per metric, with the
// quartiles and sample count of host metrics.
func (b *bench) print(scope string, m *metrics) {
	for _, n := range m.names {
		v := m.byKey[n]
		fmt.Fprintf(b.stdout, "%s %s %s %.6g", scope, n, v.Unit, v.Value)
		if len(v.Samples) > 1 {
			fmt.Fprintf(b.stdout, " q1=%.6g q3=%.6g n=%d", v.Q1, v.Q3, len(v.Samples))
		}
		fmt.Fprintln(b.stdout)
	}
}

// contractLine ends a one-workload run with the JSON object the
// benchmark driver reads: every end_to_end metric BENCHMARK.json
// declares after -trace 0, every per_layer metric after -trace 1. A
// declared per-layer metric that does not apply to this workload reads
// 0 there (results.json leaves it out).
func (b *bench) contractLine(root string, wr *workloadResult, probes *metrics) error {
	man, err := loadManifest(root)
	if err != nil {
		return err
	}
	declared := man.EndToEnd
	if b.trace == 1 {
		declared = man.PerLayer
	} else if b.trace != 0 {
		declared = append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]metric{}}
	for _, d := range declared {
		out := metric{Unit: d.Unit}
		for _, src := range []map[string]value{wr.EndToEnd, wr.PerLayer, probes.byKey} {
			if v, ok := src[d.Name]; ok {
				out.Value = v.Value
				break
			}
		}
		line.Metrics[d.Name] = out
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.stdout, string(enc))
	return err
}

// manifest is BENCHMARK.json.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// findRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json (the working directory when none does).
func findRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

// gitRevision is the commit the binary was built from, as go build
// stamped it ("unknown" outside a git checkout or under go run).
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
