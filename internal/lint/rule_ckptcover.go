package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ruleCkptCoverage enforces snapshot completeness: for every struct type
// that structurally implements checkpoint.Stateful (CheckpointState()
// ([]byte, error) + RestoreCheckpoint([]byte) error), every mutable field
// must be read somewhere in the encoder's call tree and written (used)
// somewhere in the restore path's call tree. "Mutable" is decided by
// observation, not annotation: the module is scanned for assignments,
// ++/--, and map deletes through each field, excluding constructors
// (New*/Wrap*/make*/new*) and the restore path itself. A field that is
// mutated mid-run but invisible to the snapshot encoder is exactly the
// "added a field, forgot the snapshot" bug class TestResumeMatrix only
// catches after the divergence has happened.
//
// Telemetry handles from internal/obs are exempt: they are registry-owned,
// reconstructed by Instrument, and the obs registry is checkpointed
// separately (RestoreSnapshot). Any other sanctioned omission carries a
// //lint:allow ckpt-coverage directive on (or above) the field.
var ruleCkptCoverage = &Rule{
	Name: "ckpt-coverage",
	Doc: "every mutable field of a checkpoint.Stateful implementation must be read by " +
		"CheckpointState and restored by RestoreCheckpoint (call-graph coverage)",
	SkipTests: true,
	ModuleCheck: func(mp *ModulePass) {
		g := mp.Graph

		// Collect every Stateful implementation declared in the module.
		type statefulType struct {
			name  *types.TypeName
			strct *types.Struct
			enc   []*Node // CheckpointState, and AppendCheckpoint if declared
			res   *Node
		}
		var impls []*statefulType
		for _, pkg := range mp.Pkgs {
			seen := map[*types.TypeName]bool{}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if tn == nil || seen[tn] {
						return true
					}
					seen[tn] = true
					named, _ := tn.Type().(*types.Named)
					if named == nil {
						return true
					}
					strct, _ := named.Underlying().(*types.Struct)
					if strct == nil {
						return true
					}
					enc, res, app := statefulMethods(named)
					if enc == nil || res == nil {
						return true
					}
					encNode, resNode := g.NodeFor(enc), g.NodeFor(res)
					if encNode == nil || resNode == nil {
						return true
					}
					encNodes := []*Node{encNode}
					if app != nil && g.NodeFor(app) != nil {
						encNodes = append(encNodes, g.NodeFor(app))
					}
					impls = append(impls, &statefulType{name: tn, strct: strct, enc: encNodes, res: resNode})
					return true
				})
			}
		}
		if len(impls) == 0 {
			return
		}

		// Per type: the encoder's and restore path's transitive field uses.
		type coverage struct {
			enc, res map[*Node]*Node
		}
		covs := make([]coverage, len(impls))
		restoreOwned := map[*Node]bool{} // nodes on any restore path: not mutation evidence
		for i, st := range impls {
			covs[i] = coverage{
				enc: g.ReachableFrom(st.enc),
				res: g.ReachableFrom([]*Node{st.res}),
			}
			for n := range covs[i].res {
				restoreOwned[n] = true
			}
		}

		// Module-wide scans: which field keys each node uses, and where
		// fields are mutated outside constructors and restore paths.
		uses := map[*Node]map[string]bool{}
		mutations := map[string]token.Pos{}
		for _, n := range g.Nodes {
			if mp.InTestFile(n.Pos()) {
				continue
			}
			fieldUses := map[string]bool{}
			collectMutations := !restoreOwned[n] && !isConstructorNode(n)
			g.InspectOwn(n, func(an ast.Node) bool {
				switch an := an.(type) {
				case *ast.SelectorExpr:
					if key, ok := selectionFieldKey(n.Pkg, an); ok {
						fieldUses[key] = true
					}
				case *ast.AssignStmt:
					if collectMutations {
						for _, lhs := range an.Lhs {
							for _, key := range fieldKeysIn(n.Pkg, lhs) {
								if _, ok := mutations[key]; !ok {
									mutations[key] = lhs.Pos()
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if collectMutations {
						for _, key := range fieldKeysIn(n.Pkg, an.X) {
							if _, ok := mutations[key]; !ok {
								mutations[key] = an.X.Pos()
							}
						}
					}
				case *ast.CallExpr:
					if collectMutations && isBuiltinDelete(n.Pkg, an) && len(an.Args) > 0 {
						for _, key := range fieldKeysIn(n.Pkg, an.Args[0]) {
							if _, ok := mutations[key]; !ok {
								mutations[key] = an.Args[0].Pos()
							}
						}
					}
				}
				return true
			})
			if len(fieldUses) > 0 {
				uses[n] = fieldUses
			}
		}

		reachUses := func(reach map[*Node]*Node, key string) bool {
			for n := range reach {
				if uses[n][key] {
					return true
				}
			}
			return false
		}

		for i, st := range impls {
			if mp.InTestFile(st.name.Pos()) {
				continue
			}
			for j := 0; j < st.strct.NumFields(); j++ {
				f := st.strct.Field(j)
				if f.Anonymous() || isObsHandleType(f.Type()) {
					continue
				}
				key := fieldKey(st.name, f.Name())
				mutPos, mutated := mutations[key]
				if !mutated {
					continue
				}
				where := mp.position(mutPos)
				if !reachUses(covs[i].enc, key) {
					mp.Report(f.Pos(),
						"field %s.%s is mutated (e.g. at %s) but never read in CheckpointState's call tree; snapshots silently miss it",
						st.name.Name(), f.Name(), where)
				}
				if !reachUses(covs[i].res, key) {
					mp.Report(f.Pos(),
						"field %s.%s is mutated (e.g. at %s) but never written in RestoreCheckpoint's call tree; resumed runs silently diverge",
						st.name.Name(), f.Name(), where)
				}
			}
		}
	},
}

// position renders a pos as file:line relative to nothing in particular —
// the diagnostic just needs to point a human at the mutation site.
func (mp *ModulePass) position(pos token.Pos) string {
	if len(mp.Pkgs) == 0 {
		return "?"
	}
	p := mp.Pkgs[0].Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// statefulMethods returns the CheckpointState and RestoreCheckpoint
// methods when named declares both with the checkpoint.Stateful
// signatures, else nils, and its checkpoint.Appender method
// AppendCheckpoint(*Enc) error if it declares one: a CheckpointState that
// reaches that body only through the Appender interface (checkpoint.StateOf)
// leaves no static call edge to it, so the encoder is rooted at both.
func statefulMethods(named *types.Named) (enc, res, app *types.Func) {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		sig, ok := m.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch m.Name() {
		case "CheckpointState":
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 &&
				sig.Results().At(0).Type().String() == "[]byte" &&
				sig.Results().At(1).Type().String() == "error" {
				enc = m
			}
		case "AppendCheckpoint":
			if sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
				isPtrToNamed(sig.Params().At(0).Type(), "Enc") &&
				sig.Results().At(0).Type().String() == "error" {
				app = m
			}
		case "RestoreCheckpoint":
			if sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
				sig.Params().At(0).Type().String() == "[]byte" &&
				sig.Results().At(0).Type().String() == "error" {
				res = m
			}
		}
	}
	return enc, res, app
}

// isPtrToNamed reports whether t is a pointer to a named type called name.
func isPtrToNamed(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == name
}

// fieldKey identifies a struct field across packages (source-checked and
// export-data views of the same package produce distinct objects, so
// pointer identity is not enough).
func fieldKey(tn *types.TypeName, field string) string {
	pkg := ""
	if tn.Pkg() != nil {
		pkg = tn.Pkg().Path()
	}
	return pkg + "." + tn.Name() + "." + field
}

// selectionFieldKey resolves a selector expression to a field key when it
// selects a struct field.
func selectionFieldKey(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	t := s.Recv()
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return fieldKey(named.Obj(), s.Obj().Name()), true
}

// fieldKeysIn collects the field keys of every field selection in an
// expression subtree (the conservative read of an assignment target:
// `a.table[k] = v` mutates table).
func fieldKeysIn(pkg *Package, e ast.Expr) []string {
	var keys []string
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if key, ok := selectionFieldKey(pkg, sel); ok {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// isBuiltinDelete reports a call to the builtin delete.
func isBuiltinDelete(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isConstructorNode reports whether a node is a constructor-shaped
// declared function (New*/Wrap*/new*/make*): field initialization there is
// setup, not mid-run mutation.
func isConstructorNode(n *Node) bool {
	if n.Obj == nil {
		// Literals inherit their enclosing function's classification.
		if n.Enclosing != nil {
			return isConstructorNode(n.Enclosing)
		}
		return false
	}
	name := n.Obj.Name()
	for _, prefix := range []string{"New", "Wrap", "new", "make"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// isObsHandleType reports whether a field type is (a pointer to, or slice
// of) an internal/obs handle — registry-owned telemetry state that is
// deliberately outside component snapshots.
func isObsHandleType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && pkgInScope(obj.Pkg().Path(), []string{"internal/obs"})
}
