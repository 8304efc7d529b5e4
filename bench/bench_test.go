package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func declared(ms []manifestMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestQuickMatchesManifest runs every workload in -quick mode and holds
// the emitted metric names and units to BENCHMARK.json, the manifest to
// the driver's limits, and the correctness checks to passing.
func TestQuickMatchesManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads; skipped in -short mode")
	}
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, contract allows 2-8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, contract allows 1-16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, contract allows 1-128", n)
	}
	e2e, layer := declared(man.EndToEnd), declared(man.PerLayer)
	for _, m := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's syntax", m.Name)
		}
	}
	if len(e2e)+len(layer) != len(man.EndToEnd)+len(man.PerLayer) {
		t.Error("a metric name is declared twice")
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why-sentences differ)", i, man.Workloads[i].Name, w.name)
		}
	}

	out := t.TempDir()
	runBench(t, "-quick", "-out", out)
	res, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	// expect holds one emitted metric to its declaration: an end-to-end
	// row may carry names declared on either list (the workload-specific
	// ones sit under per_layer, see README), a per-layer row or probe
	// only per-layer names.
	expect := func(scope, name string, v value, lists ...map[string]string) {
		for _, l := range lists {
			if unit, ok := l[name]; ok {
				if unit != v.Unit {
					t.Errorf("%s %s: unit %q, BENCHMARK.json declares %q", scope, name, v.Unit, unit)
				}
				emitted[name] = true
				return
			}
		}
		t.Errorf("%s emits %s, which BENCHMARK.json does not declare", scope, name)
	}
	for _, wr := range res.Workloads {
		for name := range e2e {
			if v, ok := wr.EndToEnd[name]; !ok || v.Value == 0 {
				t.Errorf("%s: declared end-to-end metric %s missing or 0", wr.Name, name)
			}
		}
		for name, v := range wr.EndToEnd {
			expect(wr.Name, name, v, e2e, layer)
		}
		for name, v := range wr.PerLayer {
			expect(wr.Name, name, v, layer)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", wr.Name, wr.Failed, wr.Attempted)
		}
		for _, c := range wr.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", wr.Name, c.Name, c.Note)
			}
		}
	}
	for name, v := range res.Probes {
		expect("probe", name, v, layer)
	}
	for name := range layer {
		if !emitted[name] {
			t.Errorf("BENCHMARK.json declares %s, which no workload or probe emits", name)
		}
	}

	if table := runBench(t, "-compare", filepath.Join(out, "results.json"), filepath.Join(out, "results.json")); strings.Contains(table, "FAIL") {
		t.Errorf("a run does not compare equal to itself:\n%s", table)
	}
}

// TestContractLine checks the driver's view: a one-workload run ends
// with one JSON object whose metrics are exactly the declared
// end_to_end names after -trace 0 and the per_layer names after -trace 1.
func TestContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped in -short mode")
	}
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]manifestMetric{"0": man.EndToEnd, "1": man.PerLayer} {
		stdout := strings.TrimSpace(runBench(t, "-quick", "-workload", "checkpoint_resume", "-seed", "7", "-seconds", "1", "-trace", trace, "-out", t.TempDir()))
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(stdout[strings.LastIndexByte(stdout, '\n')+1:]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-trace %s: last line is not the result object: %v", trace, err)
		}
		if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("-trace %s: correct/attempted/failed = %v/%d/%v", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s missing or unit %q != %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
