// Shared AST/type helpers and the single-pattern rules: nondeterminism,
// nakedgo, panicboundary, and floateq. The two structural rules (maporder,
// cachekey) live in their own files.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isFloat reports whether t's core type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMap reports whether t's core type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleeFunc resolves a call expression to the function object it invokes,
// or nil for builtins, function values, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// calleeFullName returns the resolved callee's FullName ("time.Now",
// "(*strings.Builder).WriteString"), or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if f := calleeFunc(info, call); f != nil {
		return f.FullName()
	}
	return ""
}

// identObj resolves an expression to the object of the identifier it
// denotes, unwrapping parentheses and unary & / *; nil when the expression
// is not a plain (possibly addressed) identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return identObj(info, e.X)
		}
	case *ast.StarExpr:
		return identObj(info, e.X)
	}
	return nil
}

// declaredOutside reports whether obj's declaration lies outside the
// [lo, hi] source range — i.e. the object outlives the statement being
// inspected.
func declaredOutside(obj types.Object, lo, hi token.Pos) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < lo || obj.Pos() > hi
}

// eachFuncDecl invokes fn for every function declaration in the package.
func eachFuncDecl(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(fd)
			}
		}
	}
}

// modelingPackages names the packages whose outputs feed exhibits and
// must therefore be pure functions of their inputs.
var modelingPackages = map[string]bool{
	"jsim":        true,
	"sfq":         true,
	"estimator":   true,
	"npusim":      true,
	"scalesim":    true,
	"faultinject": true,
	"experiments": true,
}

// fmtPrinters is the set of fmt functions whose map-argument output used
// to depend on iteration order and still reads as "serialise this map";
// the modeling packages must serialise maps through an explicit sorted
// walk instead.
var fmtPrinters = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Sprint": true, "fmt.Sprintf": true, "fmt.Sprintln": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Errorf": true, "fmt.Append": true, "fmt.Appendf": true, "fmt.Appendln": true,
}

// clockReads are the wall-clock sinks: time.Now and the two functions that
// read the clock on the caller's behalf. The direct nondeterminism check
// and the reachND base fact both read this one definition.
var clockReads = map[string]bool{"time.Now": true, "time.Since": true, "time.Until": true}

// checkNondeterminism forbids wall-clock reads, math/rand, and
// map-argument fmt printing inside the modeling packages. Simulator and
// estimator outputs must be pure functions of their configs; randomness
// comes only from the seeded fault model and timing only from the
// simulated clock.
//
// The rule is interprocedural: beyond the direct sinks, it flags calls
// from modeling code into module-local helpers — in packages the
// intraprocedural gate never inspects — whose call graph transitively
// reaches a sink, and reports the full derivation chain. Propagation
// stops at the trusted boundary packages (trustedNDPkgs): their clock
// reads feed telemetry and scheduling only, never modeled numbers.
func checkNondeterminism(p *Pass) {
	if !modelingPackages[p.Pkg.Name] {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); isRandPkg(path) {
				p.Reportf(imp, "modeling package %s imports %s; all randomness must flow through the seeded fault model", p.Pkg.Name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeFullName(p.Pkg.Info, call)
			switch {
			case clockReads[name]:
				p.Reportf(call, "modeling package %s reads the wall clock; outputs must be pure functions of the configuration", p.Pkg.Name)
			case fmtPrinters[name]:
				for _, arg := range call.Args {
					if tv, ok := p.Pkg.Info.Types[arg]; ok && isMap(tv.Type) {
						p.Reportf(arg, "%s receives a map argument; serialise maps through a sorted key walk so exhibit bytes cannot depend on iteration order", name)
						break
					}
				}
			}
			return true
		})
	}
	// Transitive contract: a sink hidden one or more helper calls away,
	// in a package outside the modeling gate. The finding lands on the
	// call site inside the modeling package — the deepest point still
	// under this rule's jurisdiction — with the full derivation chain.
	eachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		caller, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		callerNode := p.g.nodes[caller]
		if callerNode == nil {
			return
		}
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(p.Pkg.Info, call)
			n := p.g.nodes[callee]
			if n == nil || n.facts[reachND] == nil {
				return true
			}
			// Callees inside modeling packages are flagged at their own
			// sinks; trusted boundary packages are determinism-neutral.
			if modelingPackages[n.pkg.Name] || trustedNDPkgs[n.pkg.Path] {
				return true
			}
			chain := append([]string{callerNode.label()}, n.chain(reachND)...)
			p.ReportChainf(call, chain, "call to %s reaches %s (%s); modeling outputs must be pure functions of the configuration", callee.Name(), chain[len(chain)-1], chainString(chain))
			return true
		})
	})
}

// goExemptPackages may spawn raw goroutines: internal/parallel is the
// panic-recovering pool every fan-out must go through, and internal/server
// owns the accept loop and graceful-drain machinery.
var goExemptPackages = map[string]bool{
	"supernpu/internal/parallel": true,
	"supernpu/internal/server":   true,
}

// checkNakedGo forbids go statements outside goExemptPackages: a bare
// goroutine that panics takes the whole sweep process down instead of
// failing one work item, and escapes the pool's context cancellation and
// bounded fan-out.
func checkNakedGo(p *Pass) {
	if goExemptPackages[p.Pkg.Path] {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g, "raw go statement; route fan-out through internal/parallel so panics are captured and cancellation propagates")
			}
			return true
		})
	}
}

// documentsPanic reports whether fd's doc comment mentions "panic", which
// makes a panic below it part of the reviewed contract.
func documentsPanic(fd *ast.FuncDecl) bool {
	return fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
}

// checkPanicBoundary forbids panics in internal packages unless the
// enclosing function documents them. Outside input is validated where it
// enters and rejected with an error, so a panic is only legitimate as a
// programmer-error trap on an invariant — and then the function's doc
// comment must say so (contain the word "panic"), making the trap part of
// the reviewed contract.
//
// The rule is interprocedural: an exported function whose callees
// transitively reach an undocumented panic is flagged at its declaration
// with the call chain, because that is where the surprise escapes the
// package's reviewed surface. Documentation anywhere on the chain
// absorbs the fact (the contract is then visible to callers), as does an
// in-body recover(); callbacks handed to the worker pool never forward
// it, since the pool recovers them into *PanicError.
func checkPanicBoundary(p *Pass) {
	if !strings.Contains(p.Pkg.Path+"/", "/internal/") {
		return
	}
	eachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		documented := documentsPanic(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			// Panics inside function literals (e.g. a re-panic in a
			// recover wrapper) are judged against the same enclosing
			// declaration's doc.
			if call, ok := n.(*ast.CallExpr); ok && !documented && isUniverseCall(p.Pkg.Info, call, "panic") {
				p.Reportf(call, "%s panics but its doc comment does not say so; return an error for outside input or document the panic", fd.Name.Name)
			}
			return true
		})
		// Transitive contract: an undocumented panic escaping through an
		// exported function that neither documents nor recovers it. The
		// finding lands on the declaration — the reviewed boundary the
		// panic crosses unseen.
		if documented || !fd.Name.IsExported() {
			return
		}
		fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		n := p.g.nodes[fn]
		if n == nil || n.hasRecover {
			return
		}
		for _, e := range n.edges {
			if e.kind != edgeCall || e.callee == n || e.callee.facts[escPanic] == nil {
				continue
			}
			chain := append([]string{n.label()}, e.callee.chain(escPanic)...)
			p.ReportChainf(fd, chain, "exported %s can panic via %s (%s) but its doc comment does not say so; document the invariant or recover at the boundary", fd.Name.Name, e.callee.fn.Name(), chainString(chain))
			break
		}
	})
}

// checkFloatEq flags == and != between floating-point operands. Exact
// equality of two computed floats is almost always a latent 1-ULP bug;
// comparisons against a constant (zero-value sentinels, flag defaults) are
// exempt, as is the x != x NaN probe.
func checkFloatEq(p *Pass) {
	info := p.Pkg.Info
	isConst := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.Value != nil
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, yt := info.Types[be.X].Type, info.Types[be.Y].Type
			if !isFloat(xt) && !isFloat(yt) {
				return true
			}
			if isConst(be.X) || isConst(be.Y) {
				return true
			}
			if be.Op == token.NEQ && sameSimpleExpr(be.X, be.Y) {
				return true // x != x is the canonical NaN check
			}
			p.Reportf(be, "floating-point %s comparison; compare with an epsilon or restructure to avoid exact equality", be.Op)
			return true
		})
	}
}

// sameSimpleExpr reports whether two expressions are the identical chain
// of identifiers and field selections.
func sameSimpleExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bid, ok := b.(*ast.Ident)
		return ok && a.Name == bid.Name
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameSimpleExpr(a.X, bs.X)
	}
	return false
}
