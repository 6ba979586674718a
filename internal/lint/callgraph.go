// Module-wide call-graph construction for the interprocedural rules. The
// graph is built from the same types.Info the single-function rules use:
// every function declaration in the analyzed package set becomes a node,
// and three call shapes become edges —
//
//   - direct calls to package-level functions,
//   - method calls resolved through the static type of the receiver, and
//   - function values handed to the worker pool (parallel.ForEachContext),
//     which the pool will invoke even though no call expression appears at
//     the hand-off site.
//
// Function literals are not separate nodes: a literal's body is attributed
// to the enclosing declaration, which over-approximates (a stored-but-never-
// called literal still contributes its facts) but can never miss a sink.
// Dynamic calls through non-pool function values and interface dispatch are
// outside the graph; the intraprocedural rules still see their bodies, so
// the blind spot is bounded to facts crossing such a call.
package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// parallelPkgPath is the worker pool; function values passed to its
// entry point are treated as called (edgeCallback).
const parallelPkgPath = "supernpu/internal/parallel"

// edgeKind distinguishes how control reaches the callee: an ordinary call
// expression, or a callback invoked by the worker pool. The distinction
// matters for panic propagation — the pool recovers callback panics into
// *PanicError, so edgeCallback edges do not forward panic facts.
type edgeKind int

const (
	edgeCall edgeKind = iota
	edgeCallback
)

// edge is one caller→callee arc.
type edge struct {
	kind   edgeKind
	callee *funcNode
}

// funcNode is one declared function or method plus its base and transitive
// facts (populated by computeFacts in facts.go).
type funcNode struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	// edges lists outgoing arcs in source order, which keeps every
	// fixed-point tie-break — and therefore every reported chain —
	// deterministic.
	edges []edge

	// ---- base facts (one body walk) ----

	panicDoc   bool // doc comment contains the word "panic"
	hasRecover bool // body calls recover(); callee panics are absorbed here
	loops      bool // body contains a for or range statement
	acceptsCtx bool // signature has a context.Context parameter
	selfSynced bool // calls a Lock/RLock method; treated as internally synchronized

	// facts holds the derivation of each fact the function has, nil where
	// it has not; the body walk seeds them, the fixed point extends them.
	facts [numFacts]*chainLink
}

// chainLink records how a fact was derived: either via an edge to a callee
// that already had the fact, or directly at a sink in this body (via ==
// nil, desc names the sink).
type chainLink struct {
	via  *funcNode // next hop, nil at the sink
	desc string    // sink description when via == nil
}

// callGraph is the node set in deterministic order (package path, then
// source position).
type callGraph struct {
	nodes map[*types.Func]*funcNode
	order []*funcNode
}

// label renders the node for chain messages: "estimator.Cold",
// "jsim.(*Solver).RunChain".
func (n *funcNode) label() string {
	name := n.fn.Name()
	if recv := n.fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + ptr + named.Obj().Name() + ")." + name
		}
	}
	return n.pkg.Name + "." + name
}

// funcValueOf resolves an expression used as a function value (identifier,
// package-qualified name, or method value) to its function object.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPoolEntry reports whether f is the worker pool's fan-out entry point,
// parallel.ForEachContext.
func isPoolEntry(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == parallelPkgPath && f.Name() == "ForEachContext"
}

// buildCallGraph constructs the graph over the given package set. Callees
// outside the set (standard library, unanalyzed packages) do not become
// nodes; facts about them are captured as base facts at the call site.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*funcNode{}}
	for _, pkg := range pkgs {
		p := pkg
		eachFuncDecl(p, func(fd *ast.FuncDecl) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || fd.Body == nil {
				return
			}
			n := &funcNode{fn: fn, pkg: p, decl: fd}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		})
	}
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		if a.pkg.Path != b.pkg.Path {
			return a.pkg.Path < b.pkg.Path
		}
		return a.decl.Pos() < b.decl.Pos()
	})
	for _, n := range g.order {
		n.edges = collectEdges(g, n)
	}
	return g
}

// collectEdges walks one declaration body (function literals included) and
// returns its outgoing arcs in source order.
func collectEdges(g *callGraph, n *funcNode) []edge {
	var edges []edge
	info := n.pkg.Info
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee != nil {
			if target, ok := g.nodes[callee]; ok {
				edges = append(edges, edge{kind: edgeCall, callee: target})
			}
			if isPoolEntry(callee) {
				for _, arg := range call.Args {
					if f := funcValueOf(info, arg); f != nil {
						if target, ok := g.nodes[f]; ok {
							edges = append(edges, edge{kind: edgeCallback, callee: target})
						}
					}
				}
			}
		}
		return true
	})
	return edges
}
