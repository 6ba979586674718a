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
	"math"
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
		p:       p,
		decls:   map[*types.Func]*ast.FuncDecl{},
		module:  modulePrefix(p.Pkg.Path),
		inProg:  map[coverKey]int{},
		memoRes: map[coverKey]coverMemo{},
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
		f, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		params := f.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			obj := params.At(i)
			if st := c.moduleStruct(obj.Type()); st != nil && obj.Name() != "" {
				c.reportMissing(fd.Name, c.paramCover(f, fd, obj, i), st, fd.Name.Name, obj.Name())
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

// coverMemo is one pair's memoised coverage. A pair on a call cycle whose
// entry pair is still being walked holds a partial coverage, with low the
// depth of that entry pair; a final one has low = math.MaxInt.
type coverMemo struct {
	cov fieldSet
	low int
}

type cacheKeyChecker struct {
	p      *Pass
	decls  map[*types.Func]*ast.FuncDecl
	module string
	// inProg maps each pair being walked to its depth in the walk, and low
	// is the shallowest depth the current pair's walk has reached back to.
	inProg map[coverKey]int
	low    int
	// memoRes holds every walked pair's coverage; open lists, in walk
	// order, the pairs whose coverage is still partial.
	memoRes map[coverKey]coverMemo
	open    []coverKey
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

// reportMissing reports, at pos, the exported fields of st that cov does
// not read, against the named builder and variable.
func (c *cacheKeyChecker) reportMissing(pos ast.Node, cov fieldSet, st *types.Struct, fnName, varName string) {
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
	c.p.Reportf(pos, "key builder %s never reads %s.%s; two inputs differing only there would share a cache entry",
		fnName, varName, strings.Join(missing, ", "+varName+"."))
}

// paramCover is fn's coverage of its i'th parameter obj, memoised per
// (function, parameter), so each body is walked, and each of its ranged
// elements checked, once per parameter however many builders reach it.
//
// Pairs that hand the struct around a call cycle all read the same
// fields: the cycle's union. A cycle member reached while the pair the
// walk entered the cycle by is still being walked sees the recursion
// contribute nothing, so its coverage stays partial, read only by the
// rest of that walk, until the entry pair finishes and hands every member
// its own, complete coverage.
func (c *cacheKeyChecker) paramCover(fn *types.Func, fd *ast.FuncDecl, obj types.Object, i int) fieldSet {
	key := coverKey{fn, i}
	if depth, ok := c.inProg[key]; ok {
		c.low = min(c.low, depth)
		return fieldSet{} // recursion: contributes nothing new
	}
	if memo, ok := c.memoRes[key]; ok {
		c.low = min(c.low, memo.low)
		return memo.cov
	}
	depth, outer, open := len(c.inProg), c.low, len(c.open)
	c.inProg[key], c.low = depth, depth
	cov := c.cover(fd.Body, obj)
	delete(c.inProg, key)
	low := c.low
	c.low = min(outer, low)
	if low < depth {
		c.memoRes[key] = coverMemo{cov, low}
		c.open = append(c.open, key)
		return cov
	}
	// Every pair left open since this walk began is on a cycle through key.
	c.memoRes[key] = coverMemo{cov, math.MaxInt}
	for _, k := range c.open[open:] {
		c.memoRes[k] = coverMemo{cov, math.MaxInt}
	}
	c.open = c.open[:open]
	return cov
}

// cover walks body collecting the exported fields of obj that are read.
// Passing obj to a same-package function recurses into that function's
// coverage of the corresponding parameter; passing it anywhere the rule
// cannot see counts as full coverage. Ranging over a slice-typed field
// whose element is a module-local struct triggers a nested completeness
// check on the element variable, reported at the range statement.
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
					c.reportMissing(n, c.cover(n.Body, elemObj), est, fd.Name.Name, valID.Name)
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
		cov.union(c.paramCover(callee, fd, c.p.Pkg.Info.Defs[param], i))
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
