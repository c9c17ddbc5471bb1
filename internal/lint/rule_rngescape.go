package lint

import (
	"go/ast"
	"go/types"
)

// ruleRNGEscape guards the counted-RNG-stream discipline that makes
// checkpoint replay exact: every stream is single-threaded, owned by one
// component, and its draw count is its serializable position. Three escape
// shapes break that accounting:
//
//   - a stream stored in a package-level var (shared across components, no
//     owner to checkpoint it — and no-global-rand's constructor exemption
//     would otherwise let `var rng = rand.New(...)` through);
//   - a stream captured by (or passed to) a `go` closure, where draw order
//     becomes schedule-dependent;
//   - a stream crossing the engines' fan-out boundary — captured by a
//     function literal handed to forEachSlot, whose slots run on worker
//     goroutines, or reached through the receiver of a method value handed
//     to it. Per-client RNGs must instead be derived inside the worker from
//     (seed, round, clientID), and per-worker scratch RNGs live in the
//     context pool, reseeded per job.
//
// A stream counts as captured whether it is a variable itself or an
// RNG-typed field selected through a captured variable (r.rng inside a
// fan-out body, with r the engine's run state).
var ruleRNGEscape = &Rule{
	Name: "rng-escape",
	Doc: "forbids *rand.Rand/rngstate.Source streams escaping their owner: package-level vars, " +
		"capture by go closures, or capture by forEachSlot fan-out literals",
	SkipTests: true,
	Check: func(pass *Pass) {
		// Package-level vars holding a stream.
		for _, decl := range pass.File.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.ObjectOf(name)
					if obj == nil || !isRNGType(obj.Type()) {
						continue
					}
					pass.Report(name.Pos(),
						"package-level var %s holds an RNG stream; streams must be owned by one component so their draw positions can be checkpointed",
						name.Name)
				}
			}
		}

		ast.Inspect(pass.File, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				reportRNGCaptures(pass, n, n.Call,
					"RNG stream %s escapes into a goroutine; draw order becomes schedule-dependent and the stream position can no longer be checkpointed")
			case *ast.CallExpr:
				if staticCalleeName(pass.Pkg, n) != "forEachSlot" {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						reportFreeRNGVars(pass, lit,
							"RNG stream %s crosses the fan-out job boundary (captured by a forEachSlot literal); derive per-client RNGs inside the worker from (seed, round, clientID) instead")
					} else if body := declBody(pass.Pkg, funcValue(pass.Pkg, arg)); body != nil {
						// The receiver and parameters are declared outside
						// the body, so streams reached through them count
						// as captured.
						reportFreeRNGVars(pass, body,
							"RNG stream %s crosses the fan-out job boundary (used by a function value handed to forEachSlot); derive per-client RNGs inside the worker from (seed, round, clientID) instead")
					}
				}
			}
			return true
		})
	},
}

// reportRNGCaptures flags RNG-typed values anywhere in a go statement's
// subtree whose declaration lies outside the spawned call — captured free
// variables and passed arguments alike.
func reportRNGCaptures(pass *Pass, span ast.Node, call *ast.CallExpr, format string) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		reportFreeRNGVars(pass, lit, format)
	}
	// Arguments to the spawned call (go worker(rng), go func(r *rand.Rand){}(rng)).
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := pass.ObjectOf(id).(*types.Var); ok && isRNGType(v.Type()) {
				pass.Report(id.Pos(), format, id.Name)
			}
			return true
		})
	}
}

// reportFreeRNGVars flags RNG streams used inside scope (a function
// literal, or a declared function's body) but owned outside it: RNG-typed
// variables declared outside scope, and RNG-typed fields selected through
// such a variable.
func reportFreeRNGVars(pass *Pass, scope ast.Node, format string) {
	outside := func(v *types.Var) bool {
		return !v.IsField() && (v.Pos() < scope.Pos() || v.Pos() > scope.End())
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// Fields have no lexical scope of their own; they are judged
			// by the variable they are selected through, below.
			if v, ok := pass.ObjectOf(n).(*types.Var); ok && isRNGType(v.Type()) && outside(v) {
				pass.Report(n.Pos(), format, n.Name)
			}
		case *ast.SelectorExpr:
			f, ok := pass.ObjectOf(n.Sel).(*types.Var)
			if !ok || !f.IsField() || !isRNGType(f.Type()) {
				return true
			}
			if base := baseIdent(n.X); base != nil {
				if v, ok := pass.ObjectOf(base).(*types.Var); ok && outside(v) {
					pass.Report(n.Sel.Pos(), format, types.ExprString(n))
				}
			}
		}
		return true
	})
}

// baseIdent returns the identifier an access path (a.b[i].c, (*p).f) starts
// from, or nil when it starts from something else (a call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declBody returns the body of fn's declaration in pkg, or nil (fn is nil,
// bodyless, or declared in another package).
func declBody(pkg *Package, fn *types.Func) *ast.BlockStmt {
	if fn == nil {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// isRNGType reports whether t is (a pointer to) one of the RNG stream
// types: math/rand's Rand/Source/Source64 or internal/rngstate's counting
// Source.
func isRNGType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch path := obj.Pkg().Path(); {
	case path == "math/rand" || path == "math/rand/v2":
		switch obj.Name() {
		case "Rand", "Source", "Source64", "PCG", "ChaCha8":
			return true
		}
	case pkgInScope(path, []string{"internal/rngstate"}):
		return obj.Name() == "Source"
	}
	return false
}
