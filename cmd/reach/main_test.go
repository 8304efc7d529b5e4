package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const covdataFunc = `repro/internal/sim/engine.go:100:		NewEngine		85.7%
repro/internal/sim/engine.go:200:		*Engine.Step		100.0%
repro/internal/sim/obs.go:10:			PhaseNames		0.0%
repro/internal/lint/lint.go:5:		Run			0.0%
repro/cmd/cesim/main.go:20:		run			52.3%
repro/cmd/detlint/main.go:9:		main			0.0%
repro/internal/rng/rng.go:3:		init			100.0%
repro/internal/rng/rng.go:9:		init			0.0%
total					(statements)	80.1%
`

func TestParseFuncs(t *testing.T) {
	fns, err := parseFuncs([]byte(covdataFunc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 8 {
		t.Fatalf("parsed %d functions, want 8", len(fns))
	}
	want := fn{pkg: "repro/internal/sim", key: "internal/sim.PhaseNames", pos: "internal/sim/obs.go:10"}
	if fns[2] != want {
		t.Errorf("parsed %+v, want %+v", fns[2], want)
	}
	if !fns[1].reached || fns[2].reached {
		t.Error("reach read wrong from the percentage")
	}
	if _, err := parseFuncs([]byte("repro/x.go:1: f\n")); err == nil {
		t.Error("a line without a percentage parsed")
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	write := func(text string) string {
		p := filepath.Join(dir, "allow.txt")
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	got, err := readAllowlist(write("# comment\n\ninternal/sim.F  reached by cesim -x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"internal/sim.F": "reached by cesim -x"}; !reflect.DeepEqual(got, want) {
		t.Errorf("read %v, want %v", got, want)
	}
	for _, bad := range []string{"internal/sim.F\n", "internal/sim.F a\ninternal/sim.F b\n"} {
		if _, err := readAllowlist(write(bad)); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// TestGate: an unreached gated function fails unless listed; a listed one
// that is reached or gone fails as stale; ungated packages are ignored;
// a gated package in no program fails; an init counts as reached only
// when all of a package's inits are.
func TestGate(t *testing.T) {
	fns, err := parseFuncs([]byte(covdataFunc))
	if err != nil {
		t.Fatal(err)
	}
	scoped := []string{"repro/internal/sim", "repro/internal/rng", "repro/cmd/cesim", "repro/internal/unused"}

	r := gate(fns, scoped, map[string]string{})
	var unlisted []string
	for _, f := range r.unlisted {
		unlisted = append(unlisted, f.key)
	}
	if want := []string{"internal/sim.PhaseNames", "internal/rng.init"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted %v, want %v", unlisted, want)
	}
	if !reflect.DeepEqual(r.unlinked, []string{"repro/internal/unused"}) {
		t.Errorf("unlinked %v", r.unlinked)
	}

	r = gate(fns, scoped[:3], map[string]string{
		"internal/sim.PhaseNames": "x", "internal/rng.init": "y",
		"internal/sim.*Engine.Step": "stale", "internal/sim.Gone": "gone",
	})
	if len(r.unlisted) != 0 || len(r.listed) != 2 || len(r.unlinked) != 0 {
		t.Errorf("listed functions still fail: %+v", r)
	}
	if len(r.stale) != 2 || !strings.Contains(r.stale[0], "*Engine.Step: now reached") ||
		!strings.Contains(r.stale[1], "Gone: no such function") {
		t.Errorf("stale %v", r.stale)
	}
	if !r.failed() {
		t.Error("stale entries did not fail the gate")
	}
}
