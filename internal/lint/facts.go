// Transitive per-function facts over the call graph, computed by a
// deterministic fixed point. Each fact is a monotone boolean on the
// lattice {unknown < true}: base facts come from one walk of each body,
// and propagation only ever flips a node from unknown to true, so the
// loop terminates after at most |nodes| rounds. Nodes are visited in
// sorted order and edges in source order, which makes the derivation —
// and therefore the call chain attached to every diagnostic — a pure
// function of the source text.
//
// Facts computed:
//
//	reachND   the function reaches a nondeterminism sink (wall clock,
//	          math/rand, fmt over a map) through module-local calls;
//	          propagation stops at the trusted boundary packages whose
//	          own contracts make their internal timing unobservable
//	escPanic  an undocumented panic can escape the function's frame; a
//	          doc comment mentioning "panic" or an in-body recover()
//	          absorbs the fact, and callback edges never forward it
//	          (the pool recovers callbacks into *PanicError)
//	hotCtx    the function directly or transitively calls a
//	          context-aware callee through ctx-less locals
//	loopyHot  the function does not accept a context and a loop on some
//	          ctx-less call path below it drives a context-aware callee
//	          — the stranded-sweep shape ctxflow reports at entry points
//	mutates   the function reaches an unsynchronized write to a
//	          package-level variable (the race class sharedmut flags
//	          inside pool callbacks)
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// trustedNDPkgs are the determinism-neutral boundary packages: they read
// the clock for telemetry and scheduling, but their own contracts (the
// differential golden test for obs, byte-identity across worker counts
// for parallel) guarantee none of it is observable in modeled outputs.
// Nondeterminism propagation stops at their edges; see DESIGN.md §14.
var trustedNDPkgs = map[string]bool{
	"supernpu/internal/obs":      true,
	"supernpu/internal/parallel": true,
}

// fact names one transitive fact; it indexes funcNode.facts.
type fact int

const (
	reachND fact = iota
	escPanic
	hotCtx
	loopyHot
	mutates
	numFacts
)

// computeFacts builds the call graph, extracts base facts from every body,
// and runs the fixed point.
func computeFacts(pkgs []*Package) *callGraph {
	g := buildCallGraph(pkgs)
	for _, n := range g.order {
		collectBaseFacts(n)
	}
	propagate(g)
	return g
}

// isRandPkg reports whether path is a math/rand flavour.
func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// isUniverseCall reports whether call invokes the predeclared function of
// the given name (panic, recover).
func isUniverseCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name && info.Uses[id] == types.Universe.Lookup(name)
}

// rootVar resolves the leftmost variable of an lvalue chain
// (x, x.f, x[i], *x, pkg.X and their compositions), or nil.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					v, _ := info.ObjectOf(x.Sel).(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPkgLevelVar reports whether v is a package-scoped variable (not a
// field, parameter, or local).
func isPkgLevelVar(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// isSyncLock reports whether f is (*sync.Mutex).Lock, (*sync.RWMutex).Lock
// or RLock — the signal that a function synchronizes its own mutations.
func isSyncLock(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync" &&
		(f.Name() == "Lock" || f.Name() == "RLock")
}

// collectBaseFacts fills n's base facts and seeds its transitive ones with
// one walk of the body: the first sink of each kind becomes the base link
// of its fact.
func collectBaseFacts(n *funcNode) {
	info := n.pkg.Info
	n.acceptsCtx = signatureAcceptsContext(n.fn.Type().(*types.Signature))
	n.panicDoc = documentsPanic(n.decl)
	seed := func(f fact, desc string) {
		if n.facts[f] == nil {
			n.facts[f] = &chainLink{desc: desc}
		}
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			n.loops = true
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if v := rootVar(info, lhs); isPkgLevelVar(v) {
					seed(mutates, "write to package-level "+v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := rootVar(info, node.X); isPkgLevelVar(v) {
				seed(mutates, "write to package-level "+v.Name())
			}
		case *ast.CallExpr:
			if isUniverseCall(info, node, "panic") {
				if !n.panicDoc {
					seed(escPanic, "panic")
				}
				return true
			}
			if isUniverseCall(info, node, "recover") {
				n.hasRecover = true
				return true
			}
			callee := calleeFunc(info, node)
			if callee == nil {
				return true
			}
			if isSyncLock(callee) {
				n.selfSynced = true
			}
			full := callee.FullName()
			switch {
			case clockReads[full]:
				seed(reachND, full)
			case callee.Pkg() != nil && isRandPkg(callee.Pkg().Path()):
				seed(reachND, "math/rand."+callee.Name())
			case fmtPrinters[full]:
				for _, arg := range node.Args {
					if tv, ok := info.Types[arg]; ok && isMap(tv.Type) {
						seed(reachND, full+" over a map")
						break
					}
				}
			}
			if sig, ok := callee.Type().(*types.Signature); ok && signatureAcceptsContext(sig) {
				seed(hotCtx, callee.Name())
			}
		}
		return true
	})
	// A function that locks is trusted to synchronize its own writes.
	if n.selfSynced {
		n.facts[mutates] = nil
	}
}

// propagate runs the fixed point over all transitive facts at once. Facts
// only flip unknown→true and the via link is chosen as the first edge (in
// source order) that justifies the flip, so derivations are acyclic and
// deterministic.
func propagate(g *callGraph) {
	changed := true
	// inherit gives n fact f via c when the edge may carry it and n lacks it.
	inherit := func(n, c *funcNode, f fact, carries bool) {
		if carries && n.facts[f] == nil && c.facts[f] != nil {
			n.facts[f] = &chainLink{via: c}
			changed = true
		}
	}
	for changed {
		changed = false
		for _, n := range g.order {
			for _, e := range n.edges {
				c := e.callee
				if c == n {
					continue
				}
				call := e.kind == edgeCall
				inherit(n, c, reachND, !trustedNDPkgs[c.pkg.Path])
				inherit(n, c, escPanic, call && !n.panicDoc && !n.hasRecover)
				inherit(n, c, hotCtx, call && !c.acceptsCtx)
				inherit(n, c, loopyHot, call && !n.acceptsCtx && !c.acceptsCtx)
				inherit(n, c, mutates, !n.selfSynced)
			}
			// The loopyHot base case depends on hotCtx, which other edges of
			// this same pass may have just derived — evaluate it last.
			if n.facts[loopyHot] == nil && !n.acceptsCtx && n.loops && n.facts[hotCtx] != nil {
				n.facts[loopyHot] = &chainLink{}
				changed = true
			}
		}
	}
}

// chain renders the derivation of n's fact f, which n must have, starting
// with n's own label and ending at the sink: ["estimator.Cold",
// "report.stamp", "time.Now"].
func (n *funcNode) chain(f fact) []string {
	out := []string{n.label()}
	l := n.facts[f]
	for ; l.via != nil; l = l.via.facts[f] {
		out = append(out, l.via.label())
	}
	return append(out, l.desc)
}

// ctxChain renders the derivation of n's loopyHot fact: the ctx-less call
// path down to the looping frame, then that frame's hotCtx route to the
// context-aware callee.
func ctxChain(n *funcNode) []string {
	var out []string
	for n.facts[loopyHot].via != nil {
		out = append(out, n.label())
		n = n.facts[loopyHot].via
	}
	return append(out, n.chain(hotCtx)...)
}

// chainString joins a chain for diagnostic messages.
func chainString(chain []string) string {
	return strings.Join(chain, " → ")
}
