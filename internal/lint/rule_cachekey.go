// The cachekey rule: injectivity guard for the memoisation layer. Every
// memo key builder hand-serialises its input struct field by field
// (reflection is off the hot path on purpose), which means adding a field
// to arch.Config or workload.Layer and forgetting the key builder silently
// aliases distinct configurations onto one cache entry. The fuzz target
// catches that only for fields it knows to mutate; this rule catches it
// structurally: every exported field of a module-local struct parameter of
// a key builder must be read in the key derivation, either directly or by
// passing the struct on to another builder that reads it.
//
// A key builder is any function with "Key" in its name in package
// simcache, plus any append-style one — func xKey(b []byte, ...) []byte —
// in any package, which is how a cache owner encodes a struct simcache
// cannot import (scalesim.Config).

package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// fieldSet tracks which exported fields a builder reads; all=true means
// the whole struct escaped into code the rule cannot see (another package,
// a %+v formatter), which counts as full coverage.
type fieldSet struct {
	all   bool
	names map[string]bool
}

func (fs *fieldSet) add(name string) {
	if fs.names == nil {
		fs.names = map[string]bool{}
	}
	fs.names[name] = true
}

func (fs *fieldSet) union(other fieldSet) {
	fs.all = fs.all || other.all
	for n := range other.names {
		fs.add(n)
	}
}

// checkCacheKey checks every key builder's coverage of the exported
// fields of its module-local struct parameters.
func checkCacheKey(p *Pass) {
	inSimcache := p.Pkg.Name == "simcache"
	c := &cacheKeyChecker{
		p:        p,
		decls:    map[*types.Func]*ast.FuncDecl{},
		module:   modulePrefix(p.Pkg.Path),
		inProg:   map[coverKey]bool{},
		memoRes:  map[coverKey]fieldSet{},
		reported: map[string]bool{},
	}
	eachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		if fd.Name != nil {
			if f, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				c.decls[f] = fd
			}
		}
	})
	eachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		if fd.Body == nil || !strings.Contains(fd.Name.Name, "Key") {
			return
		}
		if !inSimcache && !appendsKey(p.Pkg.Info, fd) {
			return
		}
		for _, field := range fd.Type.Params.List {
			for _, pname := range field.Names {
				obj := p.Pkg.Info.Defs[pname]
				if obj == nil {
					continue
				}
				st := c.moduleStruct(obj.Type())
				if st == nil {
					continue
				}
				c.checkCoverage(fd, fd.Body, obj, st, fd.Name.Name, obj.Name())
			}
		}
	})
}

// appendsKey reports whether fd has the append-style key builder shape:
// a leading []byte parameter and a single []byte result.
func appendsKey(info *types.Info, fd *ast.FuncDecl) bool {
	f, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := f.Type().(*types.Signature)
	return sig.Params().Len() > 0 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// modulePrefix returns the first path component ("supernpu"), used to
// recognise module-local named types.
func modulePrefix(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// coverKey memoises coverage per (function, parameter index) pair.
type coverKey struct {
	fn    *types.Func
	param int
}

type cacheKeyChecker struct {
	p       *Pass
	decls   map[*types.Func]*ast.FuncDecl
	module  string
	inProg  map[coverKey]bool
	memoRes map[coverKey]fieldSet
	// reported deduplicates findings: a helper's element check can be
	// reached both directly and through delegation from several builders.
	reported map[string]bool
}

// moduleStruct returns the underlying struct of a module-local named type
// with at least one exported field (pointers unwrapped), or nil.
func (c *cacheKeyChecker) moduleStruct(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	path := named.Obj().Pkg().Path()
	if path != c.module && !strings.HasPrefix(path, c.module+"/") {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			return st
		}
	}
	return nil
}

// checkCoverage computes which exported fields of obj (a struct-typed
// variable in scope of body) are read, and reports the missing ones
// against the named builder.
func (c *cacheKeyChecker) checkCoverage(fd *ast.FuncDecl, body ast.Node, obj types.Object, st *types.Struct, fnName, varName string) {
	cov := c.cover(body, obj)
	if cov.all {
		return
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() && !cov.names[f.Name()] {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	key := fnName + "\x00" + varName + "\x00" + strings.Join(missing, ",")
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.p.Reportf(fd.Name, "key builder %s never reads %s.%s; two inputs differing only there would share a cache entry",
		fnName, varName, strings.Join(missing, ", "+varName+"."))
}

// cover walks body collecting the exported fields of obj that are read.
// Passing obj to a same-package function recurses into that function's
// coverage of the corresponding parameter; passing it anywhere the rule
// cannot see counts as full coverage. Ranging over a slice-typed field
// whose element is a module-local struct triggers a nested completeness
// check on the element variable.
func (c *cacheKeyChecker) cover(body ast.Node, obj types.Object) fieldSet {
	var cov fieldSet
	ast.Inspect(body, func(n ast.Node) bool {
		if cov.all {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if identObj(c.p.Pkg.Info, n.X) == obj {
				cov.add(n.Sel.Name)
			}
		case *ast.RangeStmt:
			sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
			if !ok || identObj(c.p.Pkg.Info, sel.X) != obj {
				return true
			}
			cov.add(sel.Sel.Name)
			// Nested check: the element of a ranged struct slice must
			// itself be fully serialised (the Layer inside Network).
			valID, ok := n.Value.(*ast.Ident)
			if !ok {
				return true
			}
			elemObj := c.p.Pkg.Info.Defs[valID]
			if elemObj == nil {
				return true
			}
			if est := c.moduleStruct(elemObj.Type()); est != nil {
				if fd := enclosingFuncDecl(c.p.Pkg, n); fd != nil {
					c.checkCoverage(fd, n.Body, elemObj, est, fd.Name.Name, valID.Name)
				}
			}
		case *ast.CallExpr:
			c.coverCall(n, obj, &cov)
		}
		return true
	})
	return cov
}

// coverCall folds one call's effect on obj's coverage into cov.
func (c *cacheKeyChecker) coverCall(call *ast.CallExpr, obj types.Object, cov *fieldSet) {
	for i, arg := range call.Args {
		if identObj(c.p.Pkg.Info, arg) != obj {
			continue
		}
		// Distinguish &obj / obj from obj.Field (the selector case is
		// handled by the selector walk already).
		if _, isSel := ast.Unparen(arg).(*ast.SelectorExpr); isSel {
			continue
		}
		callee := calleeFunc(c.p.Pkg.Info, call)
		fd, local := c.decls[callee]
		if !local || fd.Body == nil {
			cov.all = true // escaped to code the rule cannot inspect
			return
		}
		param := paramAt(fd, i)
		if param == nil {
			cov.all = true
			return
		}
		key := coverKey{callee, i}
		if c.inProg[key] {
			continue // recursion: contributes nothing new
		}
		if memo, ok := c.memoRes[key]; ok {
			cov.union(memo)
			continue
		}
		c.inProg[key] = true
		sub := c.cover(fd.Body, c.p.Pkg.Info.Defs[param])
		delete(c.inProg, key)
		c.memoRes[key] = sub
		cov.union(sub)
	}
}

// paramAt returns the i'th parameter name of a declaration, flattening
// grouped parameters (a, b int).
func paramAt(fd *ast.FuncDecl, i int) *ast.Ident {
	n := 0
	for _, field := range fd.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			n++ // unnamed parameter cannot be read, skip slot
			continue
		}
		for _, name := range names {
			if n == i {
				return name
			}
			n++
		}
	}
	return nil
}

// enclosingFuncDecl finds the function declaration whose body contains n.
func enclosingFuncDecl(pkg *Package, n ast.Node) *ast.FuncDecl {
	var found *ast.FuncDecl
	eachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		if fd.Body != nil && fd.Pos() <= n.Pos() && n.End() <= fd.End() {
			found = fd
		}
	})
	return found
}
