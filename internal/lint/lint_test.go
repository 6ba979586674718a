package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fixturePath is the import-path prefix fixtures load under; it sits
// below internal/ so path-gated rules (panicboundary, nakedgo) treat the
// fixtures like real internal packages.
const fixturePath = "supernpu/internal/lintfixtures/"

// loadFixture type-checks one testdata/src package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	return loadFixtureAs(t, name, fixturePath+name)
}

// loadFixtureAs type-checks the testdata/src package name under importPath
// and returns it, taken from its closure by that path.
func loadFixtureAs(t *testing.T, name, importPath string) *Package {
	t.Helper()
	for _, pkg := range loadClosureAs(t, name, importPath) {
		if pkg.Path == importPath {
			return pkg
		}
	}
	t.Fatalf("loading fixture %s: no package %s in its closure", name, importPath)
	return nil
}

// rule returns the registered rule with the given name.
func rule(t *testing.T, name string) Rule {
	t.Helper()
	r, ok := RuleByName(name)
	if !ok {
		t.Fatalf("rule %s not registered", name)
	}
	return r
}

// fixtureNames lists the fixture packages under testdata/src.
func fixtureNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// wantRe pulls the expectation pattern out of a // want "..." comment.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one want comment: a pattern that must match a finding on
// its line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// loadFixtureClosure type-checks one testdata/src package plus its
// in-module dependency closure with a single loader, so cross-package
// call-graph edges resolve to shared function objects.
func loadFixtureClosure(t *testing.T, name string) []*Package {
	t.Helper()
	return loadClosureAs(t, name, fixturePath+name)
}

// loadClosureAs is loadFixtureClosure with the fixture under importPath.
func loadClosureAs(t *testing.T, name, importPath string) []*Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadClosure(filepath.Join("testdata", "src", name), root, importPath)
	if err != nil {
		t.Fatalf("loading fixture closure %s: %v", name, err)
	}
	return pkgs
}

// checkFixture runs one rule over its fixture and verifies the findings
// line up one-to-one with the want comments: a missing finding means the
// seeded violation stopped being caught, an extra one means a false
// positive crept into a compliant shape.
func checkFixture(t *testing.T, ruleName, fixture string) {
	t.Helper()
	checkFixturePkgs(t, ruleName, fixture, []*Package{loadFixture(t, fixture)})
}

// checkFixtureClosure is checkFixture over a fixture package and its
// dependency closure: want comments are honoured in every closure package
// that lives under testdata, so cross-package chains can pin findings at
// both ends.
func checkFixtureClosure(t *testing.T, ruleName, fixture string) {
	t.Helper()
	checkFixturePkgs(t, ruleName, fixture, loadFixtureClosure(t, fixture))
}

func checkFixturePkgs(t *testing.T, ruleName, fixture string, pkgs []*Package) {
	t.Helper()
	r := rule(t, ruleName)
	var wants []*expectation
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Dir, "testdata") {
			continue // real module packages pulled in as dependencies
		}
		wants = append(wants, collectWants(t, pkg)...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	res := Run(pkgs, []Rule{r})
	for _, d := range res.Diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q, but the rule reported nothing matching there", w.file, w.line, w.pattern)
		}
	}
}

func TestMapOrderFixture(t *testing.T)       { checkFixture(t, "maporder", "maporder") }
func TestNondeterminismFixture(t *testing.T) { checkFixture(t, "nondeterminism", "nondeterminism") }
func TestNakedGoFixture(t *testing.T)        { checkFixture(t, "nakedgo", "nakedgo") }
func TestPanicBoundaryFixture(t *testing.T)  { checkFixture(t, "panicboundary", "panicboundary") }
func TestFloatEqFixture(t *testing.T)        { checkFixture(t, "floateq", "floateq") }
func TestCacheKeyFixture(t *testing.T)       { checkFixture(t, "cachekey", "cachekey") }
func TestCacheKeyOwnerFixture(t *testing.T)  { checkFixture(t, "cachekey", "cachekeyowner") }
func TestObsFlowFixture(t *testing.T)        { checkFixture(t, "obsflow", "obsflow") }
func TestCtxFlowFixture(t *testing.T)        { checkFixture(t, "ctxflow", "ctxflow") }

// The interprocedural fixtures: every violation sits ≥2 call hops and one
// package boundary away from the reported position, so these only pass
// when the call graph, the fixed point, and the chain rendering all work.
func TestNondeterminismCrossPackage(t *testing.T) {
	checkFixtureClosure(t, "nondeterminism", "ndcross")
}
func TestCtxFlowCrossPackage(t *testing.T) { checkFixtureClosure(t, "ctxflow", "ctxcross") }
func TestPanicBoundaryCrossPackage(t *testing.T) {
	checkFixtureClosure(t, "panicboundary", "paniccross")
}
func TestSharedMutFixture(t *testing.T) { checkFixtureClosure(t, "sharedmut", "sharedmut") }

// TestTransitiveChainContents pins the exact derivation chain of one
// finding per transitive rule, sink included, and its rendering into the
// message. The nondeterminism pair covers a chain through plain functions
// and one through a pointer-receiver method; the ctxflow chain ends in
// the looping frame's route to its context-aware callee.
func TestTransitiveChainContents(t *testing.T) {
	for _, tc := range []struct {
		fixture, rule string
		chain         []string
	}{
		{"ndcross", "nondeterminism", []string{"estimator.Cold", "ndhelper.Jitter", "ndhelper.stamp", "time.Now"}},
		{"ndcross", "nondeterminism", []string{"estimator.Stamped", "ndhelper.(*Clock).Read", "ndhelper.stamp", "time.Now"}},
		{"ctxcross", "ctxflow", []string{"scalesim.Sweep", "ctxhelper.Drive", "Step"}},
		{"paniccross", "panicboundary", []string{"pcross.Checked", "panichelper.Validate", "panichelper.explode", "panic"}},
		{"sharedmut", "sharedmut", []string{"callback", "smhelper.Record", "smhelper.note", "write to package-level hits"}},
	} {
		res := Run(loadFixtureClosure(t, tc.fixture), []Rule{rule(t, tc.rule)})
		i := slices.IndexFunc(res.Diags, func(d Diagnostic) bool { return slices.Equal(d.Chain, tc.chain) })
		if i < 0 {
			t.Errorf("%s: no %s diagnostic carries the chain %q; got %+v", tc.fixture, tc.rule, tc.chain, res.Diags)
			continue
		}
		if rendered := strings.Join(tc.chain, " → "); !strings.Contains(res.Diags[i].Message, rendered) {
			t.Errorf("%s: chain %s not rendered into the message: %s", tc.fixture, rendered, res.Diags[i].Message)
		}
	}
}

// TestTransitiveDedup pins one producer per finding: over every fixture
// closure with every rule, no (file, line, col, rule) repeats. Run keeps
// every report, so a second rule path reaching one position — an
// intraprocedural check beside its transitive upgrade, or a pool callback
// walked both from its own pool call and from an enclosing one — shows up
// here, where the one-to-one want matching of the fixture tests cannot
// see it (both copies match one want).
func TestTransitiveDedup(t *testing.T) {
	for _, name := range fixtureNames(t) {
		res := Run(loadFixtureClosure(t, name), Rules())
		seen := map[string]bool{}
		for _, d := range res.Diags {
			key := fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Rule)
			if seen[key] {
				t.Errorf("%s closure: duplicate diagnostics at %s", name, key)
			}
			seen[key] = true
		}
	}
}

// TestSuppression checks the //lint:allow comment forms: standalone
// above, inline, comma lists, and that allowing one rule does not silence
// another.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	res := Run([]*Package{pkg}, []Rule{rule(t, "nakedgo"), rule(t, "floateq")})
	if res.Suppressed != 3 {
		t.Errorf("suppressed = %d, want 3", res.Suppressed)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("diags = %d (%v), want exactly the wrong-rule finding", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if d.Rule != "nakedgo" || !strings.Contains(d.File, "suppress.go") {
		t.Errorf("surviving finding = %+v, want a nakedgo finding in suppress.go", d)
	}
}

// TestRulesExemptPackages pins the package gates: the pool and the server
// may spawn goroutines, and non-modeling packages may print maps.
func TestRulesExemptPackages(t *testing.T) {
	pkg := loadFixture(t, "nakedgo")
	// Re-run the same fixture under the exempt import path; the rule must
	// stay silent.
	exempt := loadFixtureAs(t, "nakedgo", "supernpu/internal/parallel")
	if res := Run([]*Package{exempt}, []Rule{rule(t, "nakedgo")}); len(res.Diags) != 0 {
		t.Errorf("nakedgo fired %d finding(s) inside internal/parallel, want 0", len(res.Diags))
	}
	if res := Run([]*Package{pkg}, []Rule{rule(t, "nakedgo")}); len(res.Diags) == 0 {
		t.Error("nakedgo silent outside the exempt packages")
	}
}

// TestTextOutput pins the one-line-per-finding text format and its
// trailing summary.
func TestTextOutput(t *testing.T) {
	pkg := loadFixture(t, "nakedgo")
	res := Run([]*Package{pkg}, []Rule{rule(t, "nakedgo")})
	var buf bytes.Buffer
	WriteText(&buf, res)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(res.Diags)+1 {
		t.Fatalf("text output has %d lines for %d findings:\n%s", len(lines), len(res.Diags), buf.String())
	}
	d := res.Diags[0]
	want := fmt.Sprintf("%s:%d:%d: %s (nakedgo)", d.File, d.Line, d.Col, d.Message)
	if lines[0] != want {
		t.Errorf("finding line = %q, want %q", lines[0], want)
	}
	if summary := fmt.Sprintf("lint: %d finding(s), 0 suppressed", len(res.Diags)); lines[len(lines)-1] != summary {
		t.Errorf("summary = %q, want %q", lines[len(lines)-1], summary)
	}
}

// TestRunByteIdentity performs two fully independent load+run passes and
// demands byte-identical text reports — the analyzer's own output must
// honour the determinism contract it enforces, including across map-heavy
// structures like the call graph.
func TestRunByteIdentity(t *testing.T) {
	render := func() []byte {
		t.Helper()
		pkgs := loadFixtureClosure(t, "sharedmut")
		pkgs = append(pkgs, loadFixtureClosure(t, "ndcross")...)
		res := Run(pkgs, Rules())
		if len(res.Diags) == 0 {
			t.Fatal("fixture run produced no findings; identity check would be vacuous")
		}
		var buf bytes.Buffer
		WriteText(&buf, res)
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("text output differs between two identical runs")
	}
}

// TestTreeClean runs every rule over the real module: the contracts the
// linter enforces must hold on the tree that ships it. This is the same
// gate make lint and CI apply, enforced from go test so a violating
// change cannot land through the test suite either.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk lost most of the tree", len(pkgs))
	}
	res := Run(pkgs, Rules())
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}
