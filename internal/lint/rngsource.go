package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// rngsource keeps all randomness flowing through internal/rng: it flags
// math/rand, math/rand/v2, and crypto/rand imports in every package but
// the rng home, and — inside deterministic packages — raw seed
// arithmetic (XOR/add/multiply on seed-named values) that bypasses
// rng.MixSeed2. Ad-hoc seed derivations correlate streams (the
// traffic.hourSeed bug PR 5 fixed); MixSeed2 diffuses every input word.
type rngsource struct{}

func (rngsource) Name() string { return "rngsource" }

// forbiddenRandImports are the randomness packages only the rng home
// may import.
var forbiddenRandImports = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "crypto/rand": true,
}

func (rngsource) Run(rc *RunContext) {
	for _, pkg := range rc.Pkgs {
		if pkg.Path == rc.Cfg.RNGPackage {
			continue
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !forbiddenRandImports[path] {
					continue
				}
				rc.Reportf(pkg, TagRNG, imp.Pos(),
					"import of %s outside %s; route randomness through the rng package or annotate //detlint:rng <reason>",
					path, rc.Cfg.RNGPackage)
			}
		}
		if !rc.Cfg.Deterministic(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch bin.Op {
				case token.XOR, token.ADD, token.SUB, token.MUL:
				default:
					return true
				}
				t := pkg.Info.TypeOf(bin)
				if t == nil {
					return true
				}
				basic, ok := t.Underlying().(*types.Basic)
				if !ok || basic.Info()&types.IsInteger == 0 {
					return true
				}
				if !mentionsSeed(bin.X) && !mentionsSeed(bin.Y) {
					return true
				}
				rc.Reportf(pkg, TagRNG, bin.Pos(),
					"raw seed arithmetic (%s) bypasses rng.MixSeed2; ad-hoc derivations correlate streams", types.ExprString(bin))
				return false // one finding per arithmetic chain
			})
		}
	}
}

// mentionsSeed reports whether the expression references an identifier
// or field whose name contains "seed".
func mentionsSeed(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "seed") {
			found = true
		}
		return !found
	})
	return found
}
