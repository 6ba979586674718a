// Module loading without golang.org/x/tools: packages inside the module
// are parsed and type-checked by a lazy recursive loader, while standard
// library imports are delegated to the stdlib's own source importer
// (go/importer with the "source" compiler), which type-checks GOROOT
// sources directly. The module has no external dependencies, so those two
// resolvers cover every import path that can appear in the tree.

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("supernpu/internal/sfq").
	Path string
	// Name is the package clause name ("sfq").
	Name string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is shared across every package of one load.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the use/def/type maps rules resolve identifiers with.
	Info *types.Info
}

// The standard-library resolver is shared process-wide: the source
// importer memoises each GOROOT package it type-checks, so sharing one
// instance across every LoadModule/LoadClosure call means fmt, context,
// sync and friends are checked from source exactly once per process instead
// of once per load (the difference between the cold and warm numbers of
// BenchmarkLintModule). The importer is bound to its FileSet, so the
// FileSet must be shared too — every load parses module files into it,
// which keeps all positions, std and module alike, resolvable. Neither
// structure is safe for concurrent mutation, so loadMu serialises every
// load entry point.
var (
	loadMu     sync.Mutex
	sharedFset *token.FileSet
	sharedStd  types.ImporterFrom
)

// sharedImporter returns the process-wide FileSet and std importer,
// creating them on first use. Callers must hold loadMu.
func sharedImporter() (*token.FileSet, types.ImporterFrom) {
	if sharedFset == nil {
		sharedFset = token.NewFileSet()
		sharedStd = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	}
	return sharedFset, sharedStd
}

// loader resolves imports for one LoadModule call. It implements
// types.ImporterFrom so the type checker can pull module-local packages
// on demand, in dependency order, with memoisation.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path, completed loads
	loading map[string]bool     // cycle guard
}

func newLoader(modRoot, modPath string) *loader {
	fset, std := sharedImporter()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the package in dir under the given import
// path, memoising the result. Import cycles inside the module are reported
// rather than recursed into.
func (l *loader) load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, name, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file in dir with comments attached.
// The package name is taken from the files; mixed package clauses (other
// than the lone-main split, which cannot occur for non-test files in one
// directory) are an error.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, "", fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, "", fmt.Errorf("lint: %w", err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, "", fmt.Errorf("lint: %s mixes packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, pkgName, nil
}

// ModulePath reads the module path out of root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module clause in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// LoadModule loads and type-checks every buildable package under root
// (skipping testdata, vendor, and hidden directories), returning them
// sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	l := newLoader(root, modPath)
	var pkgs []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadClosure loads a single directory as a package under an explicit
// import path and returns every module-local package the load pulled in —
// the root package plus its in-module dependency closure, sorted by import
// path. The rule fixtures under testdata use it to present themselves as
// internal packages so path-gated rules apply; cross-package call chains
// only resolve when caller and callee were type-checked by the same loader,
// so their function objects are identical.
func LoadClosure(dir, modRoot, importPath string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	modPath, err := ModulePath(modRoot)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	if _, err := l.load(dir, importPath); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, pkg := range l.pkgs {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
