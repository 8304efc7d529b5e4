// Package lint is the repository's determinism and hot-path static-
// analysis suite. It proves, at every call site on every change, the
// invariants the dynamic test matrix can only spot-check:
//
//   - detrange: no order-dependent iteration over maps in deterministic
//     (replay-critical) packages;
//   - wallclock: no wall-clock reads in deterministic packages — sim
//     time must flow from the timeline;
//   - rngsource: all randomness flows through internal/rng (no stray
//     math/rand or crypto/rand imports, no ad-hoc seed arithmetic);
//   - snapstate: every field of a snapshot-captured struct is either
//     captured by its Snapshot/State/Restore bodies or explicitly
//     annotated ephemeral;
//   - hotalloc: no allocation-prone constructs in functions reachable
//     from the engine's timeline phase closures.
//
// The framework is stdlib-only (go/parser + go/types; see load.go) so
// the module stays dependency-free. Findings can be suppressed with a
// reasoned annotation — see suppress.go for syntax and staleness rules.
// cmd/detlint is the CI driver.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Config selects which packages the deterministic-replay analyzers
// apply to and where randomness is allowed to live.
type Config struct {
	// DeterministicPaths are import-path suffixes of packages whose
	// execution must be bit-reproducible: detrange and wallclock only
	// fire inside these.
	DeterministicPaths []string
	// RNGPackage is the one import path allowed to import math/rand and
	// crypto/rand; rngsource flags the imports everywhere else.
	RNGPackage string
}

// DefaultConfig is the repository policy: the engine, its phases'
// transitive dependencies, and every layer the replay equivalence
// tests cover are deterministic — including the simplex and
// branch-and-bound packages under the exact placement backend, which
// the orchestrator's placements flow through, and the cluster
// description and testbed the orchestrator is built and driven from;
// internal/rng is the randomness home.
func DefaultConfig() Config {
	return Config{
		DeterministicPaths: []string{
			"internal/sim",
			"internal/shard",
			"internal/events",
			"internal/placement",
			"internal/mip",
			"internal/lp",
			"internal/router",
			"internal/traffic",
			"internal/checkpoint",
			"internal/orchestrator",
			"internal/cluster",
			"internal/testbed",
		},
		RNGPackage: "repro/internal/rng",
	}
}

// Deterministic reports whether the import path is one of the
// deterministic packages.
func (c Config) Deterministic(path string) bool {
	for _, suf := range c.DeterministicPaths {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// Finding is one analyzer hit, rendered "file:line: analyzer: message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical compiler-style format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one pass over the loaded packages.
type Analyzer interface {
	Name() string
	Run(rc *RunContext)
}

// RunContext is the shared state one Suite.Run hands every analyzer:
// the target packages, the cross-package function index (built lazily
// for the call-graph analyzers), and the reporting sink that applies
// suppressions.
type RunContext struct {
	Cfg  Config
	Pkgs []*Package

	current  string // name of the running analyzer
	findings []Finding
	idx      funcIndex
}

// Reportf records a finding at pos in pkg unless a matching suppression
// covers the line; a consulted suppression is marked used either way it
// decides, so only suppressions that never matched anything are stale.
func (rc *RunContext) Reportf(pkg *Package, tag Tag, pos token.Pos, format string, args ...any) {
	p := pkg.Fset.Position(pos)
	if pkg.supp != nil && pkg.supp.match(tag, p.Filename, p.Line) {
		return
	}
	rc.findings = append(rc.findings, Finding{
		Pos:      p,
		Analyzer: rc.current,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncIndex returns the cross-package function-declaration index,
// built on first use.
func (rc *RunContext) FuncIndex() funcIndex {
	if rc.idx == nil {
		rc.idx = buildFuncIndex(rc.Pkgs)
	}
	return rc.idx
}

// Suite is the configured analyzer set.
type Suite struct {
	Cfg       Config
	Analyzers []Analyzer
}

// NewSuite returns the full five-analyzer suite under the given config.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg: cfg,
		Analyzers: []Analyzer{
			detrange{},
			wallclock{},
			rngsource{},
			snapstate{},
			hotalloc{},
		},
	}
}

// Run executes every analyzer over the target packages and returns the
// findings — including stale or malformed suppression comments — sorted
// by position.
func (s *Suite) Run(pkgs []*Package) []Finding {
	rc := &RunContext{Cfg: s.Cfg, Pkgs: pkgs}
	for _, pkg := range pkgs {
		pkg.supp = parseSuppressions(pkg)
		rc.current = "suppress"
		for _, m := range pkg.supp.malformed {
			rc.findings = append(rc.findings, Finding{Pos: m.pos, Analyzer: "suppress", Message: m.msg})
		}
	}
	for _, a := range s.Analyzers {
		rc.current = a.Name()
		a.Run(rc)
	}
	// Staleness: a suppression that never matched a would-be finding is
	// dead weight (the code it excused was fixed or removed) and must
	// be deleted so suppressions stay trustworthy.
	rc.current = "suppress"
	for _, pkg := range pkgs {
		for _, sp := range pkg.supp.entries {
			if !sp.used {
				rc.findings = append(rc.findings, Finding{
					Pos:      sp.pos,
					Analyzer: "suppress",
					Message:  fmt.Sprintf("stale suppression: no %s finding on this or the next line", sp.tag),
				})
			}
		}
	}
	sort.Slice(rc.findings, func(i, j int) bool {
		a, b := rc.findings[i], rc.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return rc.findings
}
