package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_carbon_grams_total", "accumulated emissions", func() float64 { return 1234.5 })
	r.GaugeFunc("test_deployments", "live deployments", func() float64 { return 7 })
	r.CounterFunc("test_requests_total", "routed requests", func() float64 { return 42 })
	sk := metrics.NewQuantileSketch()
	sk.AddN(10, 1)
	sk.AddN(20, 1)
	r.Register("test_latency_ms", "request latency", "summary", func(emit EmitFunc) {
		EmitSketchSummary(emit, sk, 0.5, 0.99)
	})
	r.Register("test_phase_seconds_total", "per-phase time", "counter", func(emit EmitFunc) {
		emit("", Labels("phase", "faults"), 0.25)
		emit("", Labels("phase", "accrual"), 1.5)
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# HELP test_carbon_grams_total accumulated emissions\n",
		"# TYPE test_carbon_grams_total counter\n",
		"test_carbon_grams_total 1234.5\n",
		"# TYPE test_deployments gauge\n",
		"test_deployments 7\n",
		"test_requests_total 42\n",
		"# TYPE test_latency_ms summary\n",
		`test_latency_ms{quantile="0.5"} `,
		`test_latency_ms{quantile="0.99"} `,
		"test_latency_ms_sum 30\n",
		"test_latency_ms_count 2\n",
		`test_phase_seconds_total{phase="faults"} 0.25` + "\n",
		`test_phase_seconds_total{phase="accrual"} 1.5` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// Registration order is exposition order.
	if strings.Index(text, "test_carbon_grams_total") > strings.Index(text, "test_deployments") {
		t.Error("families not in registration order")
	}

	// Every non-comment line parses as "name[labels] float".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample %q has non-numeric value: %v", line, err)
		}
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_up", "", func() float64 { return 1 })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	req, _ := srv.Client().Post(srv.URL, "text/plain", nil)
	if req.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", req.StatusCode)
	}
	req.Body.Close()
}

func TestRegistryRejects(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("ok_name", "", func() float64 { return 0 })
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.GaugeFunc("ok_name", "", func() float64 { return 0 }) },
		"bad-name":     func() { r.GaugeFunc("bad-name", "", func() float64 { return 0 }) },
		"digit-first":  func() { r.GaugeFunc("9lives", "", func() float64 { return 0 }) },
		"empty":        func() { r.GaugeFunc("", "", func() float64 { return 0 }) },
		"bad-type":     func() { r.Register("other", "", "histogram2", func(EmitFunc) {}) },
		"label-escape": func() { _ = Labels("only-key") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Labels("city", "S\"o\\Paulo\n")
	want := `{city="S\"o\\Paulo\n"}`
	if got != want {
		t.Errorf("Labels = %s, want %s", got, want)
	}
}
