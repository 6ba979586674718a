// The maporder rule: range-over-map with an order-sensitive body. This is
// the exact bug class that shipped in PR 2, where chip power wobbled by
// 1 ULP between runs because gate counts were summed in map iteration
// order. Go randomises that order on purpose, so any float accumulation,
// output write, or unsorted collection under a map range is a
// reproducibility bug waiting for a hash-seed change.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sortCallees are the stdlib entry points that establish a deterministic
// order over a just-collected slice.
var sortCallees = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// checkMapOrder flags order-sensitive work under range-over-map
// iteration.
func checkMapOrder(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		// Track the statement list enclosing each range so the
		// collect-then-sort idiom can be recognised: the sort call is a
		// sibling statement after the loop.
		var inspectBlock func(stmts []ast.Stmt)
		inspectNode := func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BlockStmt:
					inspectBlock(n.List)
					return false
				case *ast.CaseClause:
					inspectBlock(n.Body)
					return false
				case *ast.CommClause:
					inspectBlock(n.Body)
					return false
				}
				return true
			})
		}
		inspectBlock = func(stmts []ast.Stmt) {
			for i, s := range stmts {
				rs, ok := s.(*ast.RangeStmt)
				if ok {
					if tv, ok := info.Types[rs.X]; ok && isMap(tv.Type) {
						checkMapRange(p, rs, stmts[i+1:])
					}
				}
				inspectNode(s)
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				inspectBlock(fd.Body.List)
			}
		}
	}
}

// checkMapRange inspects one range-over-map body; rest holds the sibling
// statements following the loop, where a redeeming sort may appear.
func checkMapRange(p *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := p.Pkg.Info
	lo, hi := rs.Pos(), rs.End()
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked on its own; its body's
			// findings should not double-report against the outer loop.
			if n != rs {
				if tv, ok := info.Types[n.X]; ok && isMap(tv.Type) {
					return false
				}
			}
		case *ast.AssignStmt:
			checkAssign(p, n, lo, hi, rest)
		case *ast.CallExpr:
			checkOutputCall(p, n, lo, hi)
		}
		return true
	})
}

// checkAssign flags order-sensitive updates of variables that outlive the
// loop: float accumulation (compound or x = x op y) and appends without a
// following sort.
func checkAssign(p *Pass, as *ast.AssignStmt, lo, hi token.Pos, rest []ast.Stmt) {
	info := p.Pkg.Info
	for i, lhs := range as.Lhs {
		obj := identObj(info, lhs)
		if obj == nil || !declaredOutside(obj, lo, hi) {
			continue
		}
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if isFloat(v.Type()) {
				p.Reportf(as, "float accumulation into %s over unordered map iteration; collect keys, sort, then accumulate", obj.Name())
			}
		case token.ASSIGN:
			if i >= len(as.Rhs) {
				continue
			}
			rhs := as.Rhs[i]
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 &&
					identObj(info, call.Args[0]) == obj {
					if !sortedAfter(info, obj, rest) {
						p.Reportf(as, "append to %s under map iteration without a following sort; exhibit order would track the map's hash seed", obj.Name())
					}
					continue
				}
			}
			if isFloat(v.Type()) && exprUsesObj(info, rhs, obj) {
				p.Reportf(as, "float accumulation into %s over unordered map iteration; collect keys, sort, then accumulate", obj.Name())
			}
		}
	}
}

// checkOutputCall flags calls that emit bytes during map iteration: fmt
// printing and Write-family methods on destinations declared outside the
// loop. Exhibits are byte-compared, so emission order is part of the
// contract.
func checkOutputCall(p *Pass, call *ast.CallExpr, lo, hi token.Pos) {
	info := p.Pkg.Info
	name := calleeFullName(info, call)
	if name == "" {
		return
	}
	if fmtPrinters[name] && name != "fmt.Sprintf" && name != "fmt.Sprint" && name != "fmt.Sprintln" && name != "fmt.Errorf" {
		// Fprint* writes to its first argument; Print* writes to stdout
		// (always outside the loop).
		if strings.HasPrefix(name, "fmt.Fprint") && len(call.Args) > 0 {
			if obj := identObj(info, call.Args[0]); obj != nil && !declaredOutside(obj, lo, hi) {
				return
			}
		}
		p.Reportf(call, "%s inside map iteration; emission order would track the map's hash seed", name)
		return
	}
	// Write-family methods on an out-of-loop receiver (strings.Builder,
	// bytes.Buffer, io.Writer, bufio.Writer, ...).
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	m := sel.Sel.Name
	if m != "Write" && m != "WriteString" && m != "WriteByte" && m != "WriteRune" {
		return
	}
	if f, ok := info.Uses[sel.Sel].(*types.Func); !ok || f.Type().(*types.Signature).Recv() == nil {
		return
	}
	if obj := identObj(info, sel.X); obj != nil && declaredOutside(obj, lo, hi) {
		p.Reportf(call, "%s.%s inside map iteration; emission order would track the map's hash seed", obj.Name(), m)
	}
}

// sortedAfter reports whether one of the trailing sibling statements sorts
// the collected slice: a call to a sort/slices entry point that mentions
// obj in its arguments, or an assignment of such a call's result.
func sortedAfter(info *types.Info, obj types.Object, rest []ast.Stmt) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if sortCallees[calleeFullName(info, call)] && callMentionsObj(info, call, obj) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// callMentionsObj reports whether any argument expression of call refers
// to obj.
func callMentionsObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if exprUsesObj(info, arg, obj) {
			return true
		}
	}
	return false
}

// exprUsesObj reports whether e mentions obj anywhere.
func exprUsesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			used = true
		}
		return !used
	})
	return used
}
