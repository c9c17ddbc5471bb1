package lint

import (
	"go/ast"
	"go/types"
)

// viewMutatorMethods are the in-place tensor.Vector kernels: calling one
// on a zero-copy parameter view mutates the model it aliases.
var viewMutatorMethods = map[string]bool{
	"Scale": true, "Fill": true, "Zero": true,
	"AddScaled": true, "AddScaledDiff": true,
}

// viewDstFuncs are the free kernels that write through their first
// argument.
var viewDstFuncs = map[string]bool{
	"ScaledDiff": true, "AddWeighted": true, "Softmax": true,
}

// ruleFlatViewMutation enforces DESIGN.md's buffer ownership rules for the
// flat parameter layout: the vectors returned by Model.Parameters() /
// Gradients() alias the model's storage. Storing such a view into a struct
// field, map, or slice cell, or handing it to an in-place tensor kernel,
// silently couples two models (or a snapshot and the live model) unless an
// intervening Clone() makes the copy explicit.
//
// The check is a type-aware heuristic: a "view" is the direct result of a
// zero-argument Parameters()/Gradients() method call whose type is a
// float64 slice, or a local variable assigned straight from one. Results
// piped through .Clone() are fresh storage and never flagged. Sanctioned
// mutation sites (the aggregator owns the model it updates in place)
// carry //lint:allow annotations.
var ruleFlatViewMutation = &Rule{
	Name: "flat-view-mutation",
	Doc: "flags zero-copy Parameters()/Gradients() views stored into fields/maps " +
		"or mutated by in-place tensor kernels without Clone()",
	// The nn tests mutate views on purpose to prove the aliasing
	// semantics; production code must not.
	SkipTests: true,
	Check: func(pass *Pass) {
		for _, decl := range pass.File.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFlatViews(pass, fn.Body)
		}
	},
}

func checkFlatViews(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: local variables bound directly to a view.
	viewVars := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isViewCall(pass, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					viewVars[obj] = true
				}
			}
		}
		return true
	})

	isView := func(e ast.Expr) bool {
		if isViewCall(pass, e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				return viewVars[obj]
			}
		}
		return false
	}

	// Pass 2: hazards.
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i, rhs := range node.Rhs {
				if !isView(rhs) {
					continue
				}
				switch node.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Report(node.Pos(),
						"storing a zero-copy parameter view into a struct field aliases the model; Clone() the snapshot")
				case *ast.IndexExpr:
					pass.Report(node.Pos(),
						"storing a zero-copy parameter view into a container aliases the model; Clone() the snapshot")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isView(v) {
					pass.Report(v.Pos(),
						"embedding a zero-copy parameter view in a composite literal aliases the model; Clone() the snapshot")
				}
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if viewMutatorMethods[sel.Sel.Name] && isView(sel.X) {
					pass.Report(node.Pos(),
						"%s mutates the model through a zero-copy view; Clone() first or annotate the sanctioned aggregation site",
						sel.Sel.Name)
				}
			}
			if name := calleeName(node.Fun); viewDstFuncs[name] && len(node.Args) > 0 && isView(node.Args[0]) {
				pass.Report(node.Pos(),
					"%s writes into a zero-copy view, mutating the model it aliases; Clone() first or annotate the sanctioned aggregation site",
					name)
			}
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "copy" && len(node.Args) == 2 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && isView(node.Args[0]) {
					pass.Report(node.Pos(),
						"copy into a zero-copy view mutates the model it aliases; use SetParameters or Clone()")
				}
			}
		}
		return true
	})
}

// isViewCall matches x.Parameters() / x.Gradients() with no arguments
// returning a float64 slice (tensor.Vector or equivalent).
func isViewCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Parameters" && sel.Sel.Name != "Gradients") {
		return false
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// calleeName returns the bare name of a called function for ident and
// selector forms ("AddWeighted" for both tensor.AddWeighted and
// AddWeighted).
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
