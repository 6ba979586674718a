package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
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
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), root, fixturePath+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
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
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadClosure(filepath.Join("testdata", "src", name), root, fixturePath+name)
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
	rule := RuleByName(ruleName)
	if rule == nil {
		t.Fatalf("rule %s not registered", ruleName)
	}
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
	res := Run(pkgs, []Rule{rule})
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

// TestTransitiveChainContents pins the exact derivation chain attached to
// a cross-package finding, sink included.
func TestTransitiveChainContents(t *testing.T) {
	pkgs := loadFixtureClosure(t, "ndcross")
	res := Run(pkgs, []Rule{RuleByName("nondeterminism")})
	want := []string{"estimator.Cold", "ndhelper.Jitter", "ndhelper.stamp", "time.Now"}
	for _, d := range res.Diags {
		if len(d.Chain) == len(want) {
			ok := true
			for i := range want {
				if d.Chain[i] != want[i] {
					ok = false
				}
			}
			if ok {
				if !strings.Contains(d.Message, "estimator.Cold → ndhelper.Jitter → ndhelper.stamp → time.Now") {
					t.Errorf("chain not rendered into the message: %s", d.Message)
				}
				return
			}
		}
	}
	t.Fatalf("no diagnostic carries the chain %v; got %+v", want, res.Diags)
}

// TestTransitiveDedup pins the (position, rule) de-duplication: when the
// intraprocedural ctxflow check and its interprocedural upgrade both fire
// on one declaration, exactly one diagnostic survives and it carries the
// chain.
func TestTransitiveDedup(t *testing.T) {
	pkg := loadFixture(t, "ctxflow")
	res := Run([]*Package{pkg}, []Rule{RuleByName("ctxflow")})
	seen := map[string]int{}
	for _, d := range res.Diags {
		key := fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Rule)
		seen[key]++
		if seen[key] > 1 {
			t.Errorf("duplicate diagnostics at %s", key)
		}
	}
	withChain := 0
	for _, d := range res.Diags {
		if len(d.Chain) > 0 && strings.Contains(d.Message, "does not accept a context.Context") {
			withChain++
		}
	}
	if withChain == 0 {
		t.Error("dedupe kept the chain-less diagnostic; the interprocedural derivation was lost")
	}
}

// TestSuppression checks the //lint:allow comment forms: standalone
// above, inline, comma lists, and that allowing one rule does not silence
// another.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	res := Run([]*Package{pkg}, []Rule{RuleByName("nakedgo"), RuleByName("floateq")})
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
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exempt, err := LoadDir(filepath.Join("testdata", "src", "nakedgo"), root, "supernpu/internal/parallel")
	if err != nil {
		t.Fatal(err)
	}
	if res := Run([]*Package{exempt}, []Rule{RuleByName("nakedgo")}); len(res.Diags) != 0 {
		t.Errorf("nakedgo fired %d finding(s) inside internal/parallel, want 0", len(res.Diags))
	}
	if res := Run([]*Package{pkg}, []Rule{RuleByName("nakedgo")}); len(res.Diags) == 0 {
		t.Error("nakedgo silent outside the exempt packages")
	}
}

// TestJSONOutputSchema locks the JSON report shape CI consumes.
func TestJSONOutputSchema(t *testing.T) {
	pkg := loadFixture(t, "nakedgo")
	res := Run([]*Package{pkg}, []Rule{RuleByName("nakedgo")})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Diagnostics []struct {
			Rule     string   `json:"rule"`
			Severity string   `json:"severity"`
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Col      int      `json:"col"`
			Message  string   `json:"message"`
			Symbol   string   `json:"symbol"`
			Chain    []string `json:"chain"`
		} `json:"diagnostics"`
		Counts     map[string]int `json:"counts"`
		Suppressed int            `json:"suppressed"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("JSON report does not match the documented schema: %v", err)
	}
	if len(rep.Diagnostics) == 0 {
		t.Fatal("JSON report lost the findings")
	}
	for _, d := range rep.Diagnostics {
		if d.Rule == "" || d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic in JSON report: %+v", d)
		}
		if d.Severity != "error" && d.Severity != "warning" {
			t.Errorf("severity %q, want error or warning", d.Severity)
		}
	}
	if _, ok := rep.Counts["error"]; !ok {
		t.Error("counts missing the error bucket")
	}
	if _, ok := rep.Counts["warning"]; !ok {
		t.Error("counts missing the warning bucket")
	}
	// An empty result must still serialise with a [] diagnostics array,
	// not null, so jq pipelines in CI never see a type change.
	buf.Reset()
	if err := WriteJSON(&buf, Result{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("empty report serialises diagnostics as %s, want []", buf.String())
	}
}

// TestTextOutput pins the one-line-per-finding text format and its
// trailing summary.
func TestTextOutput(t *testing.T) {
	pkg := loadFixture(t, "nakedgo")
	res := Run([]*Package{pkg}, []Rule{RuleByName("nakedgo")})
	var buf bytes.Buffer
	WriteText(&buf, res)
	out := buf.String()
	if !strings.Contains(out, "nakedgo") || !strings.Contains(out, "error") {
		t.Errorf("text output missing rule or severity:\n%s", out)
	}
	want := fmt.Sprintf("lint: %d finding(s)", len(res.Diags))
	if !strings.Contains(out, want) {
		t.Errorf("text output missing summary %q:\n%s", want, out)
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
