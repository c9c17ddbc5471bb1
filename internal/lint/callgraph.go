// Module-wide call graph: the substrate the dataflow rules (clock-taint,
// rng-escape, ckpt-coverage, phase-contract) run on. The graph is built
// once per Run from the type-checked ASTs of every loaded package, with
// one node per declared function or method and one node per function
// literal. Edges are static: direct calls, method calls resolved through
// go/types, and function values referenced by name (passing TrainLocal to
// a scheduler creates an edge even without a call). Dynamic dispatch —
// interface method calls and anonymous function values — resolves to
// nothing, which is the analysis' deliberate escape hatch: injecting a
// dependency behind an interface (the Clock, the Backend) is exactly how
// code legitimately breaks an invariant-carrying call chain.
//
// A function literal is a separate node linked from its enclosing
// function by a containment edge, so reachability treats "F defines a
// closure" as "F may run it" (conservative), while per-node fact
// collection (InspectOwn) can still attribute the literal's body to the
// literal alone — which is what lets phase-contract reason about the
// fan-out closures independently of the engine functions that build them.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Node is one function in the call graph: a declared function/method
// (Obj != nil, Decl != nil) or a function literal (Lit != nil).
type Node struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package

	// Enclosing is the node lexically containing a literal (nil for
	// declared functions).
	Enclosing *Node

	// Edges are this node's outgoing calls and contained literals, in
	// source order — the graph's traversals stay deterministic because
	// construction order is AST order over go list's sorted packages.
	Edges []Edge
}

// Edge is one outgoing reference: a static call or function-value use
// (Call site position), or a contained function literal.
type Edge struct {
	Callee   *Node
	Pos      token.Pos
	Contains bool // true for enclosing-function → literal containment
}

// Body returns the node's body block (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// DisplayName renders a compact human-readable name: "pkg.Func",
// "(*Recv).Method", or "func literal in <enclosing>".
func (n *Node) DisplayName() string {
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			ptr := ""
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				ptr = "*"
			}
			name := t.String()
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name()
			}
			if ptr != "" {
				return fmt.Sprintf("(*%s).%s", name, n.Obj.Name())
			}
			return fmt.Sprintf("%s.%s", name, n.Obj.Name())
		}
		pkg := ""
		if n.Obj.Pkg() != nil {
			pkg = n.Obj.Pkg().Name() + "."
		}
		return pkg + n.Obj.Name()
	}
	if n.Enclosing != nil {
		return "func literal in " + n.Enclosing.DisplayName()
	}
	return "func literal"
}

// Graph is the module call graph. Declared functions are keyed by
// types.Func.FullName, not by object identity: each package is type-checked
// on its own against its imports' export data, so the *types.Func a caller
// in another package sees is not the one the declaring package defines, and
// an identity key would end every call chain at the package boundary.
type Graph struct {
	Nodes []*Node
	byObj map[string]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeFor returns the node of a declared function, or nil when fn has no
// source in the loaded set.
func (g *Graph) NodeFor(fn *types.Func) *Node { return g.byObj[fn.FullName()] }

// NodeForLit returns the node of a function literal.
func (g *Graph) NodeForLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// BuildGraph constructs the call graph over every loaded package.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{byObj: map[string]*Node{}, byLit: map[*ast.FuncLit]*Node{}}

	// Pass 1: materialize a node per function declaration and per literal.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &Node{Obj: obj, Decl: fd, Pkg: pkg}
				g.Nodes = append(g.Nodes, node)
				g.byObj[obj.FullName()] = node
				g.addLiterals(node, fd.Body, pkg)
			}
		}
	}

	// Pass 2: resolve each node's own region (nested literal bodies
	// excluded) to static edges.
	for _, node := range g.Nodes {
		node := node
		g.InspectOwn(node, func(n ast.Node) bool {
			// Every function reference bottoms out in an identifier — the
			// callee of a direct call, the Sel of a method or package-
			// qualified call, or a bare function value being passed around.
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := node.Pkg.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if callee := g.byObj[fn.FullName()]; callee != nil {
				node.Edges = append(node.Edges, Edge{Callee: callee, Pos: id.Pos()})
			}
			return true
		})
	}
	return g
}

// addLiterals creates nodes for every function literal under root
// (excluding literals nested inside other literals, which attach to their
// own enclosing literal node) and links them with containment edges.
func (g *Graph) addLiterals(parent *Node, root ast.Node, pkg *Package) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		node := &Node{Lit: lit, Pkg: pkg, Enclosing: parent}
		g.Nodes = append(g.Nodes, node)
		g.byLit[lit] = node
		parent.Edges = append(parent.Edges, Edge{Callee: node, Pos: lit.Pos(), Contains: true})
		g.addLiterals(node, lit.Body, pkg)
		return false // the literal's own subtree belongs to its node
	})
}

// InspectOwn walks the node's own body region, stopping at nested
// function literals: f observes each literal node but never its body,
// which belongs to the literal's own graph node.
func (g *Graph) InspectOwn(node *Node, f func(ast.Node) bool) {
	body := node.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			f(n)
			return false
		}
		return f(n)
	})
}

// ReachableFrom runs a deterministic BFS from roots and returns, for each
// reached node, its predecessor on the first discovered path (roots map to
// nil). Both call and containment edges are followed.
func (g *Graph) ReachableFrom(roots []*Node) map[*Node]*Node {
	pred := make(map[*Node]*Node, len(roots))
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := pred[r]; ok {
			continue
		}
		pred[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if _, ok := pred[e.Callee]; ok {
				continue
			}
			pred[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return pred
}

// Chain renders the call path from a BFS root to node as "a → b → c",
// capped at maxHops nodes (an ellipsis marks truncation).
func Chain(pred map[*Node]*Node, node *Node, maxHops int) string {
	var names []string
	for n := node; n != nil; n = pred[n] {
		names = append(names, n.DisplayName())
		if pred[n] == nil {
			break
		}
	}
	// names is leaf→root; reverse.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	if len(names) > maxHops {
		names = append(append([]string{}, names[:maxHops-1]...), "…", names[len(names)-1])
	}
	return strings.Join(names, " → ")
}
