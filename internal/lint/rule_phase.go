package lint

import (
	"go/ast"
	"go/types"
)

// phaseForbidden lists methods that belong exclusively to the engines'
// single-threaded dispatch/collect phases, keyed by (receiver type name,
// method name). Matching is by name rather than by import path so the
// contract also binds fixture and future code: any type named Population
// with an AcquireClient method is the population under this module's
// conventions. Shard derivation (ShardInto, ShardSize) is absent on
// purpose: it reads only immutable state and writes the caller's buffer,
// so the job that trains on a shard derives it on its worker.
var phaseForbidden = map[[2]string]string{
	{"Population", "AcquireClient"}:  "client acquisition mutates cache pin state",
	{"Population", "Release"}:        "release mutates cache pin state",
	{"Population", "Client"}:         "unpinned client access races with eviction",
	{"Population", "FlushObs"}:       "deferred-telemetry flush is a collect-phase operation",
	{"Population", "ObserveDerived"}: "derivation sizes are observed in slot order on the collect phase",
	{"Cache", "Get"}:                 "a lookup mutates LRU recency, and a miss inserts and evicts",
	{"Cache", "Acquire"}:             "acquisition is a lookup plus a pin-state mutation",
	{"Cache", "Release"}:             "release mutates cache pin state and may evict",
	{"Ledger", "Record"}:             "ledger writes are ordered by the collect phase",
	{"Ledger", "RecordDiscarded"}:    "ledger writes are ordered by the collect phase",
	{"Tracer", "Emit"}:               "trace emission is ordered by the dispatch/collect phases",
}

// rulePhaseContract enforces the engines' three-phase concurrency
// contract: fan-out jobs (function literals, named functions, or method
// values handed to forEachSlot) run on
// worker goroutines and may only touch their job-local context — working
// set acquisition/release, ledger writes, and observability flushes are
// single-threaded dispatch/collect operations. The check is call-graph
// transitive: a helper called from a fan-out literal is held to the same
// contract, however many hops away. Atomic telemetry handles (obs.Counter
// and friends) are deliberately absent from the forbidden set — they are
// the sanctioned way for workers to count.
var rulePhaseContract = &Rule{
	Name: "phase-contract",
	Doc: "functions reachable from engine fan-out jobs (forEachSlot literals) must not acquire/" +
		"release working-set entries, write the ledger, or flush deferred telemetry",
	SkipTests: true,
	ModuleCheck: func(mp *ModulePass) {
		g := mp.Graph

		// Roots: every function literal passed to a forEachSlot call, plus
		// named functions and method values (r.trainSlot) passed by value.
		var roots []*Node
		for _, n := range g.Nodes {
			if mp.InTestFile(n.Pos()) {
				continue
			}
			g.InspectOwn(n, func(an ast.Node) bool {
				call, ok := an.(*ast.CallExpr)
				if !ok || staticCalleeName(n.Pkg, call) != "forEachSlot" {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						roots = append(roots, g.NodeForLit(lit))
					} else if fn := funcValue(n.Pkg, arg); fn != nil {
						roots = append(roots, g.NodeFor(fn))
					}
				}
				return true
			})
		}
		pred := g.ReachableFrom(roots)

		for _, n := range g.Nodes {
			if _, ok := pred[n]; !ok {
				continue
			}
			if mp.InTestFile(n.Pos()) {
				continue
			}
			g.InspectOwn(n, func(an ast.Node) bool {
				call, ok := an.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, method, ok := receiverMethod(n.Pkg, sel)
				if !ok {
					return true
				}
				why, forbidden := phaseForbidden[[2]string{recv, method}]
				if !forbidden {
					return true
				}
				mp.Report(sel.Pos(),
					"%s.%s is called from an engine fan-out job (%s); %s — move it to the single-threaded dispatch or collect phase",
					recv, method, Chain(pred, n, 5), why)
				return true
			})
		}
	},
}

// funcValue resolves an expression that names a function — a bare or
// package-qualified function, or a method selected from a value (the
// callee of r.step(), the method value r.step) — to that function, or nil.
func funcValue(pkg *Package, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// staticCalleeName resolves a call's static callee function name, or "".
func staticCalleeName(pkg *Package, call *ast.CallExpr) string {
	if fn := funcValue(pkg, call.Fun); fn != nil {
		return fn.Name()
	}
	return ""
}

// receiverMethod resolves a method-call selector to its receiver type name
// and method name. Both concrete and interface receivers count: the
// contract is about what the operation does, not how it is dispatched.
func receiverMethod(pkg *Package, sel *ast.SelectorExpr) (recv, method string, ok bool) {
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name(), fn.Name(), true
	case *types.Interface:
		// Interface method expression receiver — fall through to the
		// selector's qualifier type when resolvable.
	}
	if tv, okTV := pkg.Info.Types[sel.X]; okTV {
		x := tv.Type
		if p, isPtr := x.(*types.Pointer); isPtr {
			x = p.Elem()
		}
		if named, isNamed := x.(*types.Named); isNamed {
			return named.Obj().Name(), fn.Name(), true
		}
	}
	return "", "", false
}
