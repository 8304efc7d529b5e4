// benchguard compares `go test -bench` output against the guard
// baselines recorded in a BENCH_NN.json file and exits non-zero when a
// guarded metric regresses by more than the recorded tolerance — a
// benchstat-style gate small enough to run in CI on every push.
//
// Usage:
//
//	go test -run '^$' -bench ... . | tee bench.out
//	go run ./cmd/benchguard -baseline BENCH_12.json bench.out
//
// With no file argument the bench output is read from stdin. Only the
// metrics listed in the baseline's "guard" section are compared; the
// rest of the JSON is descriptive. Guarded metrics are deliberately
// machine-independent ratios (speedups, overhead percentages) so the
// gate holds on any runner; absolute timings in the JSON are recorded
// for trajectory, not guarded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// guardMetric is one gated measurement in the baseline file.
type guardMetric struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Baseline  float64 `json:"baseline"`
	// Direction "min" means higher is better and the gate fails when the
	// measured value drops below baseline*(1-tolerance); "max" means
	// lower is better and the gate fails above baseline*(1+tolerance).
	Direction string `json:"direction"`
}

type guardSection struct {
	TolerancePct float64       `json:"tolerance_pct"`
	Metrics      []guardMetric `json:"metrics"`
}

type baselineFile struct {
	Guard guardSection `json:"guard"`
}

func main() {
	baselinePath := flag.String("baseline", "", "BENCH_NN.json file holding the guard section")
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(base.Guard.Metrics) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s has no guard.metrics\n", *baselinePath)
		os.Exit(2)
	}
	tol := base.Guard.TolerancePct / 100
	if tol <= 0 {
		tol = 0.15
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for _, g := range base.Guard.Metrics {
		got, ok := measured[g.Benchmark][g.Metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s %s: metric not found in bench output\n", g.Benchmark, g.Metric)
			failed = true
			continue
		}
		var bad bool
		var bound float64
		switch g.Direction {
		case "min":
			bound = g.Baseline * (1 - tol)
			bad = got < bound
		case "max":
			bound = g.Baseline * (1 + tol)
			bad = got > bound
		default:
			fmt.Fprintf(os.Stderr, "FAIL %s %s: unknown direction %q\n", g.Benchmark, g.Metric, g.Direction)
			failed = true
			continue
		}
		verdict := "ok  "
		if bad {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s %s: got %.4g, baseline %.4g (%s bound %.4g, tolerance %.0f%%)\n",
			verdict, g.Benchmark, g.Metric, got, g.Baseline, g.Direction, bound, tol*100)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: regression beyond tolerance")
		os.Exit(1)
	}
}

// parseBench extracts per-benchmark metrics from `go test -bench` text:
// each result line is "BenchmarkName[-P] N <value> <unit> [<value> <unit>]..."
// and every (value, unit) pair becomes a metric keyed by unit.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so guards match on any core count.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = map[string]float64{}
			out[name] = m
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	return out, nil
}
