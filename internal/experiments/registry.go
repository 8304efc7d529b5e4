package experiments

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Runner executes one named experiment and returns its printable result.
type Runner func(*Suite) (fmt.Stringer, error)

// registry maps experiment IDs (figure/table numbers and ablations) to
// runners. The cesim command dispatches on these IDs.
var registry = map[string]Runner{
	"fig1":                func(s *Suite) (fmt.Stringer, error) { return s.Fig1() },
	"fig2":                func(s *Suite) (fmt.Stringer, error) { return s.Fig2() },
	"fig3":                func(s *Suite) (fmt.Stringer, error) { return s.Fig3() },
	"fig4":                func(s *Suite) (fmt.Stringer, error) { return s.Fig4() },
	"table1":              func(s *Suite) (fmt.Stringer, error) { return s.Table1() },
	"fig5":                func(s *Suite) (fmt.Stringer, error) { return s.Fig5() },
	"fig7":                func(s *Suite) (fmt.Stringer, error) { return s.Fig7() },
	"fig8":                func(s *Suite) (fmt.Stringer, error) { return s.Fig8() },
	"fig9":                func(s *Suite) (fmt.Stringer, error) { return s.Fig9() },
	"fig10":               func(s *Suite) (fmt.Stringer, error) { return s.Fig10() },
	"fig11":               func(s *Suite) (fmt.Stringer, error) { return s.Fig11() },
	"fig12":               func(s *Suite) (fmt.Stringer, error) { return s.Fig12() },
	"fig13":               func(s *Suite) (fmt.Stringer, error) { return s.Fig13() },
	"fig14":               func(s *Suite) (fmt.Stringer, error) { return s.Fig14() },
	"fig15":               func(s *Suite) (fmt.Stringer, error) { return s.Fig15() },
	"fig16":               func(s *Suite) (fmt.Stringer, error) { return s.Fig16() },
	"fig17":               func(s *Suite) (fmt.Stringer, error) { return s.Fig17() },
	"overhead":            func(s *Suite) (fmt.Stringer, error) { return s.Overhead() },
	"ablation-solver":     func(s *Suite) (fmt.Stringer, error) { return s.AblationSolver() },
	"ablation-forecast":   func(s *Suite) (fmt.Stringer, error) { return s.AblationForecast() },
	"ablation-batch":      func(s *Suite) (fmt.Stringer, error) { return s.AblationBatch() },
	"ablation-activation": func(s *Suite) (fmt.Stringer, error) { return s.AblationActivation() },
	"ext-redeploy":        func(s *Suite) (fmt.Stringer, error) { return s.ExtRedeploy() },
	"traffic":             func(s *Suite) (fmt.Stringer, error) { return s.Traffic() },
	"faults":              func(s *Suite) (fmt.Stringer, error) { return s.Faults() },
	"longhaul":            func(s *Suite) (fmt.Stringer, error) { return s.Longhaul() },
	"sharded":             func(s *Suite) (fmt.Stringer, error) { return s.Sharded() },
}

// IDs returns all registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// MatchIDs returns the registered experiment IDs matching a path-style
// glob (e.g. "fig1*", "ablation-*", "faults"), sorted. An invalid
// pattern or a pattern matching nothing is an error.
func MatchIDs(pattern string) ([]string, error) {
	var out []string
	for _, id := range IDs() {
		ok, err := path.Match(pattern, id)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad pattern %q: %w", pattern, err)
		}
		if ok {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no experiment matches %q (have %v)", pattern, IDs())
	}
	return out, nil
}

// Report is the structured outcome of one experiment: the typed result
// value (e.g. *Fig12Result) plus execution telemetry. Commands and
// benchmark harnesses consume this instead of the bare fmt.Stringer.
type Report struct {
	// ID is the experiment's registry key.
	ID string
	// Value is the experiment's structured result; every result also
	// implements fmt.Stringer for rendering.
	Value fmt.Stringer
	// Elapsed is the experiment's wall-clock time.
	Elapsed time.Duration
	// PeakHeapBytes is the heap footprint obtained from the OS as of the
	// experiment's end (runtime.MemStats.HeapSys — a process-level
	// high-water mark, not per-experiment attribution).
	PeakHeapBytes uint64
	// GCCycles is how many garbage collections ran during the experiment.
	GCCycles uint32
	// AllocBytes is the total heap allocation volume during the
	// experiment.
	AllocBytes uint64
	// Phases is the experiment's per-phase trace aggregate across every
	// simulation its grids ran (nil unless Suite.Obs).
	Phases []obs.PhaseStat
}

// String renders the experiment header (ID, wall clock, memory
// telemetry) and the result, followed by the per-phase breakdown when
// the suite traced it. The header stays on the first line: diff-based
// consumers strip it as the one run-varying line.
func (r *Report) String() string {
	hdr := fmt.Sprintf("=== %s (%.1fs", r.ID, r.Elapsed.Seconds())
	if r.PeakHeapBytes > 0 {
		hdr += fmt.Sprintf(", heap %.0f MB, %d GCs, %.0f MB alloc",
			float64(r.PeakHeapBytes)/(1<<20), r.GCCycles, float64(r.AllocBytes)/(1<<20))
	}
	out := hdr + fmt.Sprintf(") ===\n%s", r.Value)
	if pt := PhaseTable(r.Phases); pt != "" {
		if !strings.HasSuffix(out, "\n") {
			out += "\n"
		}
		out += pt
	}
	return out
}

// PhaseTable renders a tracer report as an aligned table, skipping
// phases that never ran ("" when nothing ran at all).
func PhaseTable(phases []obs.PhaseStat) string {
	var rows [][]string
	for _, p := range phases {
		if p.Calls == 0 {
			continue
		}
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%d", p.Calls),
			fmt.Sprintf("%.1fms", float64(p.TotalNs)/1e6),
			fmt.Sprintf("%.1fus", float64(p.MeanNs())/1e3),
			fmt.Sprintf("%.1fus", float64(p.MaxNs)/1e3),
			fmt.Sprintf("%.0fB", p.AllocBytesPerCall()),
		})
	}
	if rows == nil {
		return ""
	}
	rows = append([][]string{{"phase", "calls", "total", "mean", "max", "alloc/call"}}, rows...)
	return table("-- timeline phases --", rows)
}

// RunReport executes the experiment with the given ID and returns its
// structured report.
func RunReport(s *Suite, id string) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	s.beginExperiment(id)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	v, err := r(s)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep := &Report{ID: id, Value: v, Elapsed: time.Since(start)}
	// Heap/GC telemetry rides with the opt-in tracing: untraced reports
	// keep the pre-observability header, whose only varying field is the
	// wall clock (downstream determinism checks strip exactly that).
	if s.Obs {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		rep.PeakHeapBytes = m1.HeapSys
		rep.GCCycles = m1.NumGC - m0.NumGC
		rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	if tr := s.gridTrace(); tr != nil {
		rep.Phases = tr.Report()
	}
	return rep, nil
}
