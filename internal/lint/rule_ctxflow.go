// The ctxflow rule: cancellation must flow through the modeling packages,
// never originate inside them. Every long-running loop polls ctx.Err(),
// which only helps if ctx is a context that the caller — the CLI's signal
// handler, the server's request deadline — actually controls.
// A modeling function that manufactures its own root context with
// context.Background() or context.TODO() cuts that wire: the loop below it
// becomes uncancellable no matter what the caller does. Likewise an
// exported entry point that loops over steps, cycles or sweep points while
// calling context-aware callees, but does not itself accept a
// context.Context, strands its callers one hop away from cancellation.

package lint

import (
	"go/ast"
	"go/types"
)

// isContextType reports whether t is the context.Context interface type.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// signatureAcceptsContext reports whether any parameter (receiver excluded)
// of sig is a context.Context.
func signatureAcceptsContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkCtxFlow enforces the two wiring contracts in the modeling
// packages: no context.Background()/context.TODO() calls, and exported
// functions that loop while invoking context-aware callees must accept a
// context.Context themselves.
func checkCtxFlow(p *Pass) {
	if !modelingPackages[p.Pkg.Name] {
		return
	}
	// Contract 1: no manufactured root contexts anywhere in the package —
	// function bodies, package-level variable initialisers, methods alike.
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := calleeFullName(p.Pkg.Info, call); name == "context.Background" || name == "context.TODO" {
				p.Reportf(call, "modeling package %s calls %s(); accept the caller's context so the loop below stays cancellable", p.Pkg.Name, name)
			}
			return true
		})
	}
	// Contract 2: an exported function that loops and calls context-aware
	// callees is a long-running entry point; it must accept a ctx itself or
	// its callers can never cancel it. The loop and the context-aware
	// callee may sit in its own body (the loopyHot base case) or any number
	// of ctx-less helper calls below it; the finding lands on the
	// declaration with the derivation.
	eachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() {
			return
		}
		fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		n := p.g.nodes[fn]
		if n == nil || n.facts[loopyHot] == nil {
			return
		}
		chain := ctxChain(n)
		p.ReportChainf(fd, chain, "exported %s drives a context-aware callee from a loop but does not accept a context.Context (%s); thread the caller's ctx through so the sweep stays cancellable", fd.Name.Name, chainString(chain))
	})
}
