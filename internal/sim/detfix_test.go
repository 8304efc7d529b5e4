package sim

import (
	"strings"
	"testing"

	"repro/internal/carbon"
	"repro/internal/placement"
)

// These tests pin the nondeterminism fixes detlint surfaced: error
// paths and restore paths must be byte-identical run to run, not just
// behaviorally equivalent.

// TestUnknownSitesErrorDeterministic pins the NewEngine validation
// error: the unknown site names come out of a map, so the message must
// name the lexicographically first one on every construction.
func TestUnknownSitesErrorDeterministic(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Sites = []string{"Zzz-nowhere", "Mmm-nowhere", "Aaa-nowhere"}

	first := ""
	for i := 0; i < 20; i++ {
		_, err := NewEngine(cfg, w)
		if err == nil {
			t.Fatal("NewEngine accepted unknown site names")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, `"Aaa-nowhere"`) {
				t.Fatalf("error does not name the lexicographically first unknown site: %q", first)
			}
			continue
		}
		if err.Error() != first {
			t.Fatalf("error message varies across constructions:\n  run 0: %q\n  run %d: %q", first, i, err.Error())
		}
	}
}

// TestRestorePreservesFcErrShape pins the FcErr restore fix: a
// fault-free engine keeps its forecast skew map nil through a snapshot/restore
// round-trip (restore must not materialize an empty map the original
// never had), so a re-snapshot is byte-identical on that field.
func TestRestorePreservesFcErrShape(t *testing.T) {
	w := testWorld(t)
	cfg := shortConfig(carbon.RegionEurope, placement.CarbonAware{})
	cfg.Hours = 48
	e, err := NewEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.faults.Skew != nil {
		t.Fatal("fault-free engine grew a forecast-error map")
	}
	snap := e.Snapshot()
	if snap.FcErr != nil {
		t.Fatal("snapshot of a fault-free engine carries a FcErr map")
	}
	r, err := NewEngineFrom(cfg, w, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.faults.Skew != nil {
		t.Fatal("restore materialized an empty skew map the original never had")
	}
	if resnap := r.Snapshot(); resnap.FcErr != nil {
		t.Fatal("re-snapshot after restore diverged on FcErr")
	}
}
