// The sharedmut rule: callbacks handed to the worker pool run
// concurrently, so a write to anything captured from the enclosing scope
// is a data race unless it is synchronized — and it is exactly the race
// class `go test -race` only catches when two workers happen to collide
// on the same cache line during the test run. The pool's safe idioms are
// untouched: writing result[i] through the callback's own index,
// callback-local state, and mutex-guarded aggregation all pass.
//
// The rule is interprocedural: a callback that calls a helper — in any
// module package, at any depth — which writes a package-level variable
// without taking a lock is flagged with the derivation chain, as is a
// named function handed to the pool whose own call graph mutates shared
// state.

package lint

import (
	"go/ast"
	"go/types"
)

// checkSharedMut flags unsynchronized writes to captured or package-level
// state inside callbacks handed to internal/parallel.
func checkSharedMut(p *Pass) {
	// The pool and the server own their synchronization primitives.
	if goExemptPackages[p.Pkg.Path] {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if !isPoolEntry(callee) {
				return true
			}
			for _, arg := range call.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					checkCallback(p, callee.Name(), arg)
				default:
					if fv := funcValueOf(info, arg); fv != nil {
						if n := p.g.nodes[fv]; n != nil && n.facts[mutates] != nil {
							chain := n.chain(mutates)
							p.ReportChainf(arg, chain, "callback %s passed to parallel.%s mutates shared state without synchronization (%s); aggregate per index or guard the write with a mutex", fv.Name(), callee.Name(), chainString(chain))
						}
					}
				}
			}
			return true
		})
	}
}

// checkCallback inspects one function-literal callback for unsynchronized
// writes to captured state, directly or through its callees. The literal
// callbacks of a pool call nested inside it are left to the file walk,
// which checks them on their own, so each write has one report.
func checkCallback(p *Pass, poolName string, lit *ast.FuncLit) {
	info := p.Pkg.Info
	// A callback that takes a lock is synchronized by design; trust it
	// wholesale rather than attempting lock-region analysis.
	synced := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isSyncLock(calleeFunc(info, c)) {
			synced = true
		}
		return true
	})
	if synced {
		return
	}
	captured := func(v *types.Var) bool {
		return v != nil && !v.IsField() && (v.Pos() < lit.Pos() || v.Pos() > lit.End())
	}
	nested := map[*ast.FuncLit]bool{}
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return !nested[node]
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				checkWrite(p, poolName, captured, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(p, poolName, captured, node.X)
		case *ast.CallExpr:
			c := calleeFunc(info, node)
			if isPoolEntry(c) {
				for _, arg := range node.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						nested[fl] = true
					}
				}
			}
			if n := p.g.nodes[c]; n != nil && n.facts[mutates] != nil {
				chain := append([]string{"callback"}, n.chain(mutates)...)
				p.ReportChainf(node, chain, "callback passed to parallel.%s calls %s, which mutates shared state without synchronization (%s); aggregate per index or guard the write with a mutex", poolName, c.Name(), chainString(chain))
			}
		}
		return true
	})
}

// checkWrite classifies one lvalue inside a callback and reports writes
// that land on captured state. Indexed writes into captured slices are
// the pool's order-preserving per-index idiom and pass; indexed writes
// into captured maps race on the map header and fail.
func checkWrite(p *Pass, poolName string, captured func(*types.Var) bool, lhs ast.Expr) {
	info := p.Pkg.Info
	report := func(at ast.Expr, form string, v *types.Var) {
		p.Reportf(at, "callback passed to parallel.%s writes %s %s captured from the enclosing scope without synchronization; aggregate per index, keep the state local to the callback, or guard with a mutex", poolName, form, v.Name())
	}
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, _ := info.ObjectOf(e).(*types.Var); captured(v) {
			report(e, "the variable", v)
		}
	case *ast.IndexExpr:
		if v := rootVar(info, e); captured(v) {
			if tv, ok := info.Types[e.X]; ok && isMap(tv.Type) {
				report(e, "an entry of the map", v)
			}
		}
	case *ast.StarExpr:
		if v := rootVar(info, e.X); captured(v) {
			report(e, "the target of the pointer", v)
		}
	case *ast.SelectorExpr:
		if v := rootVar(info, e); captured(v) {
			report(e, "a field of", v)
		}
	}
}
