package orchestrator

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/placement"
)

// goldenStatePath is a GET /api/v1/state envelope of goldenHistory, with
// the wall-clock fields zeroed (canonicalState).
var goldenStatePath = filepath.Join("testdata", "state.golden.json")

// goldenHistory drives a traffic-attached orchestrator through
// deployments, a scale-out, a crash and its recovery, a re-placement, a
// degrade, a second crash still in force, a queued recipe and faults
// still pending. Every server hosts at most one deployment at every
// tick, so each server's draw is one sum whatever order its deployments
// are added in.
func goldenHistory(t *testing.T) *Orchestrator {
	t.Helper()
	o := trafficFixture(t, placement.LatencyAware{}, 6)
	tick := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if err := o.Tick(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject := func(f events.Fault) {
		t.Helper()
		if err := injectFault(o, f); err != nil {
			t.Fatal(err)
		}
	}
	deployOne(t, o, "app-a", "CityA")
	deployOne(t, o, "app-b", "CityB")
	tick(2)
	inject(events.Fault{Kind: events.FaultScaleOut, Site: "CityA", Device: energy.OrinNano.Name, CapacityMilli: 1000, Count: 1})
	tick(1)
	inject(events.Fault{Kind: events.FaultCrash, Site: "CityA", Device: energy.A2.Name, For: time.Hour})
	tick(1)
	// The crash evicted app-a into the queue; it re-places on the flash
	// server, the only one left at its source.
	placed, rejected, err := o.PlaceBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || len(rejected) != 0 || placed[0].ServerID != "srv-CityA-flash-0" {
		t.Fatalf("re-placing app-a: placed %+v, rejected %v; want it on the flash server", placed, rejected)
	}
	inject(events.Fault{Kind: events.FaultDegrade, Site: "CityB", Factor: 0.5})
	tick(3)
	inject(events.Fault{At: 10 * time.Hour, Kind: events.FaultForecastError, Zone: "Z-GREEN", Factor: 2, For: 5 * time.Hour})
	// The recovered server went down again, empty, for a day.
	inject(events.Fault{Kind: events.FaultCrash, Site: "CityA", Device: energy.A2.Name, For: 24 * time.Hour})
	inject(events.Fault{At: 20 * time.Hour, Kind: events.FaultScaleOut, Site: "CityB", Device: energy.A2.Name, CapacityMilli: 2000, Count: 2})
	if err := o.Submit(Recipe{Name: "app-d", Model: "ResNet50", Source: "CityB", SLOms: 50, RatePerSec: 5}); err != nil {
		t.Fatal(err)
	}
	tick(2)
	return o
}

// canonicalState is o's GET /api/v1/state envelope with the wall-clock
// fields zeroed: the batch latency summary and the last solve's times.
func canonicalState(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	st := mustState(t, o)
	st.DeployLatency = metrics.SummaryState{}
	st.LastSolve.SolveMs, st.LastSolve.TotalSolveMs = 0, 0
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, stateKind, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenState pins the orchestrator checkpoint: replaying the golden
// history reproduces the checked-in envelope byte for byte, and loading
// the envelope into a fresh orchestrator saves it back unchanged.
func TestGoldenState(t *testing.T) {
	want, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, goldenHistory(t)); !bytes.Equal(got, want) {
		t.Errorf("replayed history saves\n%s\nwant %s\n%s", got, goldenStatePath, want)
	}

	var st State
	if err := checkpoint.Decode(bytes.NewReader(want), stateKind, &st); err != nil {
		t.Fatal(err)
	}
	restored := trafficFixture(t, placement.LatencyAware{}, 6)
	if err := restored.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, restored); !bytes.Equal(got, want) {
		t.Errorf("load then save gives\n%s\nwant %s\n%s", got, goldenStatePath, want)
	}
}
