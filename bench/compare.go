package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ledgerBounds are the regression bounds of the host end-to-end metrics
// that BENCHMARK.json cannot declare as end_to_end, because they do not
// apply to every workload (see README "The driver's contract").
var ledgerBounds = map[string]manifestMetric{
	"place_rtt_p50_ms": {Better: "lower", Bound: 0.10},
}

// compareFiles prints one row per workload x end-to-end metric of two
// results.json files, a the base and b the candidate, and reports
// whether every metric is within its bound: simulated metrics and counts
// must be identical, a host metric's median may not be worse than the
// base's by more than the bound. A host metric whose inter-quartile
// range is wider than its bound on either side is "unresolved", not
// "ok", unless every sample of b beats every sample of a.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	man, err := loadManifest(findRoot())
	if err != nil {
		return false, err
	}
	bounds := map[string]manifestMetric{}
	for name, m := range ledgerBounds {
		bounds[name] = m
	}
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Quick != b.Env.Quick {
		return false, fmt.Errorf("runs are not comparable: seed %d quick=%v against seed %d quick=%v",
			a.Env.Seed, a.Env.Quick, b.Env.Seed, b.Env.Quick)
	}
	other := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		other[wr.Name] = wr
	}
	ok := true
	unresolved := 0
	fmt.Fprintf(w, "%-18s %-24s %-9s %14s %14s %9s  %s\n", "workload", "metric", "kind", "a (base)", "b", "b/a", "verdict")
	for _, wa := range a.Workloads {
		wb := other[wa.Name]
		if wb == nil {
			continue
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for n := range wa.EndToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb := wa.EndToEnd[n], wb.EndToEnd[n]
			verdict := verdictOf(va, vb, bounds[n])
			switch verdict {
			case "FAIL":
				ok = false
			case "unresolved":
				unresolved++
			}
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Fprintf(w, "%-18s %-24s %-9s %14.6g %14.6g %9.4f  %s\n", wa.Name, n, va.Kind, va.Value, vb.Value, ratio, verdict)
		}
		if wa.Digest != wb.Digest {
			ok = false
			fmt.Fprintf(w, "%-18s %-24s %-9s %14s %14s %9s  FAIL\n", wa.Name, "digest", kindSimulated, wa.Digest, wb.Digest, "")
		}
	}
	fmt.Fprintf(w, "unresolved: %d\n", unresolved)
	return ok, nil
}

func verdictOf(a, b value, m manifestMetric) string {
	if a.Kind != kindHost {
		if a.Value == b.Value {
			return "ok"
		}
		return "FAIL"
	}
	sign := 1.0 // positive worse means b is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.Value - a.Value) / a.Value
	wide := func(v value) bool { return len(v.Samples) > 1 && (v.Q3-v.Q1)/v.Value > m.Bound }
	if wide(a) || wide(b) {
		if len(a.Samples) > 0 && len(b.Samples) > 0 {
			worstB, bestA := extreme(b.Samples, sign), extreme(a.Samples, -sign)
			if sign*(worstB-bestA) < 0 {
				return "ok"
			}
		}
		return "unresolved"
	}
	if worse > m.Bound {
		return "FAIL"
	}
	return "ok"
}

// extreme is the largest of sign*sample, returned unsigned: sign 1 gives
// the maximum, -1 the minimum.
func extreme(samples []float64, sign float64) float64 {
	out := samples[0]
	for _, s := range samples[1:] {
		if sign*s > sign*out {
			out = s
		}
	}
	return out
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
