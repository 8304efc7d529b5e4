package sim

import (
	"reflect"
	"testing"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/placement"
)

// churnShape is redeploy_churn's config: 240 h at 120 arrivals/h with a
// redeploy of every live app each 6 h, cold or warm.
func churnShape(warm bool) Config {
	cfg := DefaultConfig(carbon.RegionUS, placement.CarbonAware{})
	cfg.Hours = 240
	cfg.ArrivalsPerHour = 120
	cfg.AppLifetimeHours = 72
	cfg.RedeployEveryHours = 6
	cfg.Devices = []string{energy.A2.Name, energy.GTX1080.Name, energy.OrinNano.Name}
	cfg.WarmRedeploy = warm
	return cfg
}

// solverScan reads one of the engine's solver's work counters:
// placement's test-only scans.<name>, read through reflection because
// placement exports no counter that only a test reads. fits counts the
// capacity tests (Resources.Fits evaluations), search the floor
// rescans, inplace and dropped the floors a touch updated in place or
// dropped, and lookup the warm seed's slot lookups.
func solverScan(e *Engine, name string) int {
	return int(reflect.ValueOf(e.solver).Elem().FieldByName("scans").FieldByName(name).Int())
}

// TestFitWorkCounted counts the capacity tests per solve on faults_storm's
// and redeploy_churn's shapes. The solver answers every capacity test
// from its fit table, which tests each distinct demand row against a
// server once per change of the server's free capacity. Before the table
// every (class, candidate) scan tested its own pairs; the same runs made,
// per solve:
//
//	faults_storm         4 383 solves   2 509.4 Fits   (table: 158.1)
//	redeploy_churn/cold    299 solves  14 563.7 Fits   (table: 1 593.1)
//	redeploy_churn/warm    279 solves  15 933.5 Fits   (table: 1 466.5)
//
// Each run must stay under a fifth of the count before the table. It
// also counts the floor rescans, the floors a touch updated in place or
// dropped, and the warm seed's slot lookups; redeploy_churn must update
// some floors in place (faults_storm runs no local search). The counts
// are logged (go test -v) for the profile notes.
func TestFitWorkCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 4 860 epochs")
	}
	w := testWorld(t)
	for _, tc := range []struct {
		name   string
		cfg    Config
		before float64 // Fits per solve before the fit table
	}{
		{"faults_storm", stormShape(w), 2509.4},
		{"redeploy_churn/cold", churnShape(false), 14563.7},
		{"redeploy_churn/warm", churnShape(true), 15933.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for !e.Done() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			solves, fits := e.Finish().Batches, solverScan(e, "fits")
			per := float64(fits) / float64(solves)
			t.Logf("%d solves, %d Fits evaluations: %.1f per solve, %.1f before the fit table", solves, fits, per, tc.before)
			if per > tc.before/5 {
				t.Errorf("%.1f Fits per solve, want at most a fifth of the %.1f before the fit table", per, tc.before)
			}
			for _, name := range []string{"search", "inplace", "dropped", "lookup"} {
				n := solverScan(e, name)
				t.Logf("%-8s %7d: %.1f per solve", name, n, float64(n)/float64(solves))
			}
			if inplace := solverScan(e, "inplace"); tc.name != "faults_storm" && inplace == 0 {
				t.Error("no floor was updated in place")
			}
		})
	}
}
