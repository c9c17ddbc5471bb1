package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randConstructors are the package-level math/rand functions that build
// explicitly seeded generators rather than drawing from the shared global
// source; everything else at package level is forbidden.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// rngSourcePkg is the one package whose non-test code may call
// math/rand's NewSource: rngstate.New yields the same stream with an O(1)
// Seed, and rngstate itself reads its constants from math/rand's source.
// Tests may call NewSource as the oracle.
const rngSourcePkg = "internal/rngstate"

var ruleNoGlobalRand = &Rule{
	Name: "no-global-rand",
	Doc: "forbids math/rand's package-level functions (global source); " +
		"non-test code draws from an rngstate.New source, and a test may " +
		"also draw from a seeded *rand.Rand",
	// The global source would silently break seeded golden tests, so the
	// rule covers test files too.
	SkipTests: false,
	Check: func(pass *Pass) {
		newSourceOK := strings.HasSuffix(pass.Filename, "_test.go") ||
			pkgInScope(pass.Pkg.Path, []string{rngSourcePkg})
		ast.Inspect(pass.File, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			p := obj.Pkg().Path()
			if p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			if p == "math/rand" && fn.Name() == "NewSource" && !newSourceOK {
				pass.Report(sel.Pos(), "use rngstate.New: same stream, O(1) Seed")
				return true
			}
			if randConstructors[fn.Name()] {
				return true
			}
			// Methods on *rand.Rand have a receiver — those are the seeded
			// path and are fine; package-level functions are not.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			// Outside rngstate only a test may import math/rand at all (CI
			// refuses it elsewhere), so a seeded *rand.Rand is test advice.
			pass.Report(sel.Pos(),
				"rand.%s draws from math/rand's shared global source; draw from an rngstate.New source instead (a test may use a seeded *rand.Rand)",
				fn.Name())
			return true
		})
	},
}
