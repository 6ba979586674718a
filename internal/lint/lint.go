// Package lint is the repository's machine-checked rulebook: a static
// analyzer, built only on the standard library's go/parser, go/ast, and
// go/types (no golang.org/x/tools), that loads every package in the module
// and enforces the determinism, concurrency, and error-handling contracts
// the evaluation pipeline depends on but no compiler checks.
//
// The exhibits must be byte-identical across runs and worker counts, fault
// outcomes must be pure functions of (seed, site), and cache keys must be
// injective over simulation inputs. Each of those contracts has already
// been violated once by accident (a 1-ULP chip-power wobble from float
// accumulation over unordered map iteration), so instead of relying on
// golden-test luck the rules here reject the bug classes at the source
// level:
//
//	maporder        float accumulation, unsorted appends, or output writes
//	                under range-over-map iteration
//	nondeterminism  wall-clock reads, math/rand, and map-argument fmt
//	                printing in the modeling packages
//	nakedgo         raw go statements outside the panic-recovering pool
//	                and the server
//	panicboundary   panics in internal packages outside documented
//	                invariant helpers
//	floateq         == / != between computed floating-point operands
//	cachekey        memo key builders (simcache's, and append-style ones
//	                anywhere) that skip exported fields of the structs
//	                they encode
//	obsflow         reads of obs instrument or gate state inside the
//	                modeling packages (observability is write-only there)
//	ctxflow         context.Background/TODO calls in the modeling packages,
//	                and exported looping entry points that fail to accept
//	                the caller's context.Context
//	sharedmut       unsynchronized writes to captured or package-level
//	                state inside callbacks handed to the worker pool
//
// False positives are silenced in place with a
//
//	//lint:allow(rule) reason...
//
// comment on the offending line or the line directly above it; the reason
// is mandatory by convention and reviewed like any other code.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"io"
	"regexp"
	"slices"
	"strings"
)

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
	// Chain is the interprocedural derivation for transitive findings,
	// from the reported function down to the sink
	// (["estimator.Cold", "report.stamp", "time.Now"]); empty for
	// intraprocedural findings.
	Chain []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// Rule is one named check over a type-checked package.
type Rule struct {
	// Name is the identifier used in output and //lint:allow comments.
	Name string
	// Doc is a one-line statement of the contract the rule protects.
	Doc string
	// Check inspects one package and reports findings through the pass.
	Check func(p *Pass)
}

// Rules returns the full registry in its canonical order. The slice is
// freshly allocated; callers may filter it.
func Rules() []Rule {
	return []Rule{
		{"maporder", "map iteration must not accumulate floats, write output, or collect results without a sort", checkMapOrder},
		{"nondeterminism", "modeling packages must be pure: no wall-clock reads (time.Now, time.Since, time.Until), no math/rand, no fmt printing of maps", checkNondeterminism},
		{"nakedgo", "goroutines outside internal/parallel and internal/server must use the panic-recovering pool", checkNakedGo},
		{"panicboundary", "panics in internal packages are allowed only in functions whose doc comment documents them", checkPanicBoundary},
		{"floateq", "computed floating-point values must not be compared with == or !=", checkFloatEq},
		{"cachekey", "simcache key builders must reference every exported field of the structs they fingerprint", checkCacheKey},
		{"obsflow", "modeling packages may write obs instruments but never read them", checkObsFlow},
		{"ctxflow", "modeling packages must thread the caller's context: no context.Background/TODO, and exported looping entry points accept a ctx", checkCtxFlow},
		{"sharedmut", "pool callbacks must not write captured or package-level state without synchronization", checkSharedMut},
	}
}

// RuleByName returns the registered rule with the given name.
func RuleByName(name string) (Rule, bool) {
	for _, r := range Rules() {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// Pass hands one package to one rule and collects its findings.
type Pass struct {
	Pkg *Package
	// g is the module-wide call graph with its transitive facts; rules
	// consult it for interprocedural findings.
	g    *callGraph
	rule string
	sup  suppressions
	res  *Result
}

// Reportf records a finding at node's position.
func (p *Pass) Reportf(node ast.Node, format string, args ...any) {
	p.ReportChainf(node, nil, format, args...)
}

// ReportChainf records a transitive finding at node's position, attaching
// the interprocedural derivation chain. A finding that a //lint:allow
// comment for the rule covers is counted as suppressed instead.
func (p *Pass) ReportChainf(node ast.Node, chain []string, format string, args ...any) {
	pos := p.Pkg.Fset.Position(node.Pos())
	d := Diagnostic{
		Rule:    p.rule,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	}
	if p.sup.allows(d) {
		p.res.Suppressed++
		return
	}
	p.res.Diags = append(p.res.Diags, d)
}

// Result is the outcome of running a rule set over a package set.
type Result struct {
	// Diags holds every unsuppressed finding, sorted by file, line,
	// column, rule, then message.
	Diags []Diagnostic
	// Suppressed counts findings silenced by //lint:allow comments.
	Suppressed int
}

// allowRe matches one //lint:allow(rule1,rule2) comment; everything after
// the closing parenthesis is the human-facing justification.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\(([^)]*)\)`)

// suppressions maps file -> line -> rule names allowed on that line. An
// allow comment covers its own line and the line directly below it, so it
// works both inline and as a standalone comment above the finding.
type suppressions map[string]map[int][]string

func collectSuppressions(pkg *Package) suppressions {
	sup := suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					sup[pos.Filename] = byLine
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					byLine[pos.Line] = append(byLine[pos.Line], name)
					byLine[pos.Line+1] = append(byLine[pos.Line+1], name)
				}
			}
		}
	}
	return sup
}

func (s suppressions) allows(d Diagnostic) bool {
	for _, name := range s[d.File][d.Line] {
		if name == d.Rule {
			return true
		}
	}
	return false
}

// Run applies every rule to every package and returns the merged, sorted,
// suppression-filtered result. Before the rules fire, the module-wide call
// graph and its transitive facts are computed over the whole package set,
// so interprocedural findings see edges that cross package boundaries.
// Each finding has exactly one producer, so nothing is de-duplicated.
func Run(pkgs []*Package, rules []Rule) Result {
	g := computeFacts(pkgs)
	var res Result
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, rule := range rules {
			rule.Check(&Pass{Pkg: pkg, g: g, rule: rule.Name, sup: sup, res: &res})
		}
	}
	// The canonical emission order makes the report itself a pure function
	// of the source tree; the message tie-break keeps it total when one
	// rule reports twice at one position.
	slices.SortFunc(res.Diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.File, b.File),
			cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Message, b.Message),
		)
	})
	return res
}

// WriteText renders the result one finding per line, with a trailing
// summary, in a stable order suitable for diffing in CI logs.
func WriteText(w io.Writer, res Result) {
	for _, d := range res.Diags {
		fmt.Fprintln(w, d)
	}
	fmt.Fprintf(w, "lint: %d finding(s), %d suppressed\n", len(res.Diags), res.Suppressed)
}
