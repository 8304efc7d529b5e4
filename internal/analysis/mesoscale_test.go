package analysis

import (
	"math"
	"testing"
	"time"

	"repro/internal/carbon"
	"repro/internal/deploy"
	"repro/internal/latency"
)

type fixture struct {
	zones  *carbon.Registry
	traces *carbon.TraceSet
	dep    *deploy.Deployment
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	zones, err := carbon.DefaultRegistry(42)
	if err != nil {
		t.Fatal(err)
	}
	cities, err := latency.DefaultCityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	traces := carbon.NewGenerator(42).GenerateTraces(zones)
	dep, err := deploy.Generate(zones, cities)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{zones: zones, traces: traces, dep: dep}
}

func TestPaperRegionsResolve(t *testing.T) {
	f := newFixture(t)
	for _, reg := range PaperRegions() {
		if len(reg.ZoneIDs) != 5 {
			t.Errorf("%s has %d zones, want 5", reg.Name, len(reg.ZoneIDs))
		}
		for _, id := range reg.ZoneIDs {
			if f.zones.ByID(id) == nil {
				t.Errorf("%s references unknown zone %s", reg.Name, id)
			}
		}
	}
}

func TestSnapshotSpreads(t *testing.T) {
	// Figure 2 reports instantaneous spreads of 2.5x (Florida), 7.9x
	// (West US), 2.2x (Italy), 19.5x (Central EU). Those are single-hour
	// values; we assert the max spread over a sample of hours lands in
	// generous bands preserving the ordering Central EU >> West US >
	// Florida ~ Italy.
	f := newFixture(t)
	maxRatio := map[string]float64{}
	for _, reg := range PaperRegions() {
		for h := 12; h < 24*28; h += 17 {
			at := f.traces.Start.Add(time.Duration(h) * time.Hour)
			snap, err := Snapshot(reg, f.zones, f.traces, at)
			if err != nil {
				t.Fatal(err)
			}
			maxRatio[reg.Name] = math.Max(maxRatio[reg.Name], snap.MinMaxRatio)
		}
	}
	if maxRatio["Central EU"] < 8 {
		t.Errorf("Central EU max spread %.1fx, want >= 8x (paper: 19.5x)", maxRatio["Central EU"])
	}
	if maxRatio["West US"] < 3 {
		t.Errorf("West US max spread %.1fx, want >= 3x (paper: 7.9x)", maxRatio["West US"])
	}
	if maxRatio["Florida"] < 1.5 {
		t.Errorf("Florida max spread %.1fx, want >= 1.5x (paper: 2.5x)", maxRatio["Florida"])
	}
	if maxRatio["Central EU"] <= maxRatio["Florida"] {
		t.Error("Central EU spread should dominate Florida")
	}
}

func TestSnapshotGeometryAnnotations(t *testing.T) {
	f := newFixture(t)
	snap, err := Snapshot(PaperRegions()[0], f.zones, f.traces, f.traces.Start.Add(100*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Florida box annotated 807km x 712km in the paper.
	if snap.SpanKmW < 200 || snap.SpanKmW > 900 {
		t.Errorf("Florida span W = %.0f km", snap.SpanKmW)
	}
	if len(snap.Zones) != 5 {
		t.Errorf("snapshot zones = %d", len(snap.Zones))
	}
}

func TestSnapshotErrors(t *testing.T) {
	f := newFixture(t)
	bad := MesoscaleRegion{Name: "bad", ZoneIDs: []string{"NOPE"}}
	if _, err := Snapshot(bad, f.zones, f.traces, f.traces.Start); err == nil {
		t.Error("unknown zone accepted")
	}
	reg := PaperRegions()[0]
	if _, err := Snapshot(reg, f.zones, f.traces, f.traces.Start.Add(-time.Hour)); err == nil {
		t.Error("out-of-range time accepted")
	}
}

func TestYearlyRatios(t *testing.T) {
	// Figure 3: yearly mean ratios 2.7x (West US) and 10.8x (Central
	// EU).
	f := newFixture(t)
	var west, eu float64
	for _, reg := range PaperRegions() {
		stats, ratio, err := Yearly(reg, f.zones, f.traces)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 5 {
			t.Fatalf("%s: %d stats", reg.Name, len(stats))
		}
		for _, s := range stats {
			if s.Min > s.Mean || s.Mean > s.Max {
				t.Errorf("%s/%s: min/mean/max ordering broken", reg.Name, s.ZoneID)
			}
		}
		switch reg.Name {
		case "West US":
			west = ratio
		case "Central EU":
			eu = ratio
		}
	}
	if west < 2.0 || west > 3.5 {
		t.Errorf("West US yearly ratio %.2f, paper reports 2.7", west)
	}
	if eu < 7 || eu > 15 {
		t.Errorf("Central EU yearly ratio %.2f, paper reports 10.8", eu)
	}
}

func TestRadiusStudyMonotoneInRadius(t *testing.T) {
	// Figure 5: larger radii can only improve the best available saving.
	f := newFixture(t)
	model := latency.DefaultModel()
	prev := map[string]float64{}
	for _, radius := range []float64{200, 500, 1000} {
		savings, err := RadiusStudy(f.dep, f.zones, f.traces, model, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(savings) != len(f.dep.Sites) {
			t.Fatalf("savings for %d sites, want %d", len(savings), len(f.dep.Sites))
		}
		for _, s := range savings {
			if s.SavingPct < 0 || s.SavingPct > 100 {
				t.Errorf("saving %.1f%% out of range", s.SavingPct)
			}
			if s.SavingPct < prev[s.SiteID]-1e-9 {
				t.Errorf("site %s: saving shrank from %.1f to %.1f as radius grew",
					s.SiteID, prev[s.SiteID], s.SavingPct)
			}
			prev[s.SiteID] = s.SavingPct
		}
	}
}

func TestRadiusSummaryShapesMatchPaper(t *testing.T) {
	// Figure 5 annotations: at 200 km, most sites (68% in the paper)
	// lack big savings; at 1000 km most sites (78%) have >20% savings.
	// We assert the qualitative direction.
	f := newFixture(t)
	model := latency.DefaultModel()
	summaries := map[float64]RadiusCDFSummary{}
	for _, radius := range []float64{200, 500, 1000} {
		savings, err := RadiusStudy(f.dep, f.zones, f.traces, model, radius)
		if err != nil {
			t.Fatal(err)
		}
		summaries[radius] = SummarizeRadius(radius, savings)
	}
	if summaries[200].FracBelow20 <= summaries[1000].FracBelow20 {
		t.Errorf("frac below 20%% should shrink with radius: %.2f vs %.2f",
			summaries[200].FracBelow20, summaries[1000].FracBelow20)
	}
	if summaries[200].FracAbove40 >= summaries[1000].FracAbove40 {
		t.Errorf("frac above 40%% should grow with radius: %.2f vs %.2f",
			summaries[200].FracAbove40, summaries[1000].FracAbove40)
	}
	if summaries[1000].FracAbove40 < 0.2 {
		t.Errorf("at 1000 km only %.0f%% of sites save >40%% (paper: 45%%)",
			summaries[1000].FracAbove40*100)
	}
	// Figure 5d: median latency grows with radius (5.3 ms -> 14.3 ms).
	if summaries[200].MedianLatencyMs >= summaries[1000].MedianLatencyMs {
		t.Errorf("median latency should grow with radius: %.1f vs %.1f",
			summaries[200].MedianLatencyMs, summaries[1000].MedianLatencyMs)
	}
	if summaries[1000].MedianLatencyMs > 30 {
		t.Errorf("median one-way latency at 1000 km = %.1f ms, paper reports 14.3",
			summaries[1000].MedianLatencyMs)
	}
}

func TestSummarizeRadiusEmpty(t *testing.T) {
	sum := SummarizeRadius(200, nil)
	if sum.FracBelow20 != 0 || sum.MedianLatencyMs != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
}
