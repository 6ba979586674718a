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
//	nondeterminism  time.Now, math/rand, and map-argument fmt printing in
//	                the modeling packages
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
	"encoding/json"
	"fmt"
	"go/ast"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Severity ranks a diagnostic. Both severities fail a lint run; the split
// exists so output consumers can distinguish contract violations (error)
// from strong-suspicion heuristics (warning).
type Severity int

const (
	// Warning marks heuristic findings: almost always a bug, but with
	// known legitimate shapes that a reviewed //lint:allow can bless.
	Warning Severity = iota
	// Error marks contract violations with no legitimate in-tree shape.
	Error
)

// String returns the lowercase name used in text and JSON output.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	// Chain is the interprocedural derivation for transitive findings,
	// from the reported function down to the sink
	// (["estimator.Cold", "report.stamp", "time.Now"]); empty for
	// intraprocedural findings.
	Chain []string `json:"chain,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s (%s)", d.File, d.Line, d.Col, d.Severity, d.Message, d.Rule)
}

// Rule is one named check over a type-checked package.
type Rule interface {
	// Name is the identifier used in output and //lint:allow comments.
	Name() string
	// Doc is a one-line statement of the contract the rule protects.
	Doc() string
	// Severity classifies every diagnostic the rule emits.
	Severity() Severity
	// Check inspects one package and reports findings through the pass.
	Check(p *Pass)
}

// Pass hands one package to one rule and collects its findings.
type Pass struct {
	Pkg *Package
	// Facts carries the module-wide call graph and transitive facts;
	// rules consult it for interprocedural findings.
	Facts  *Facts
	rule   Rule
	report func(Diagnostic)
}

// Reportf records a finding at node's position.
func (p *Pass) Reportf(node ast.Node, format string, args ...any) {
	p.ReportChainf(node, nil, format, args...)
}

// ReportChainf records a transitive finding at node's position, attaching
// the interprocedural derivation chain.
func (p *Pass) ReportChainf(node ast.Node, chain []string, format string, args ...any) {
	pos := p.Pkg.Fset.Position(node.Pos())
	p.report(Diagnostic{
		Rule:     p.rule.Name(),
		Severity: p.rule.Severity(),
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Rules returns the full registry in its canonical order. The slice is
// freshly allocated; callers may filter it.
func Rules() []Rule {
	return []Rule{
		&mapOrderRule{},
		&nondeterminismRule{},
		&nakedGoRule{},
		&panicBoundaryRule{},
		&floatEqRule{},
		&cacheKeyRule{},
		&obsFlowRule{},
		&ctxFlowRule{},
		&sharedMutRule{},
	}
}

// RuleByName returns the registered rule with the given name, or nil.
func RuleByName(name string) Rule {
	for _, r := range Rules() {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// Result is the outcome of running a rule set over a package set.
type Result struct {
	// Diags holds every unsuppressed finding, sorted by file, line,
	// column, then rule.
	Diags []Diagnostic
	// Suppressed counts findings silenced by //lint:allow comments.
	Suppressed int
}

// Errors reports how many diagnostics carry Error severity.
func (r Result) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
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
// Afterwards the diagnostics are sorted into the canonical emission order
// and de-duplicated.
func Run(pkgs []*Package, rules []Rule) Result {
	facts := computeFacts(pkgs)
	var res Result
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, rule := range rules {
			pass := &Pass{Pkg: pkg, Facts: facts, rule: rule}
			pass.report = func(d Diagnostic) {
				if sup.allows(d) {
					res.Suppressed++
					return
				}
				res.Diags = append(res.Diags, d)
			}
			rule.Check(pass)
		}
	}
	sortDiagnostics(res.Diags)
	res.Diags = dedupe(res.Diags)
	return res
}

// sortDiagnostics orders findings by (file, line, col, rule, message):
// the canonical emission order both writers (text and JSON) inherit, so
// analyzer output is itself a pure function of the source tree. The
// message tie-break makes the order total even when one rule reports
// twice at one position.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// dedupe collapses findings that share (file, line, col, rule): when an
// interprocedural rule and its intraprocedural ancestor both fire at one
// position, the chain-carrying diagnostic wins, so the reader gets the
// full derivation exactly once. The input must already be sorted.
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.File == d.File && last.Line == d.Line && last.Col == d.Col && last.Rule == d.Rule {
				if len(last.Chain) == 0 && len(d.Chain) > 0 {
					*last = d
				}
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// WriteText renders the result one finding per line, with a trailing
// summary, in a stable order suitable for diffing in CI logs.
func WriteText(w io.Writer, res Result) {
	for _, d := range res.Diags {
		fmt.Fprintln(w, d)
	}
	fmt.Fprintf(w, "lint: %d finding(s) (%d error, %d warning), %d suppressed\n",
		len(res.Diags), res.Errors(), len(res.Diags)-res.Errors(), res.Suppressed)
}

// jsonReport is the stable JSON output schema; TestJSONOutputSchema pins
// its shape.
type jsonReport struct {
	Diagnostics []Diagnostic   `json:"diagnostics"`
	Counts      map[string]int `json:"counts"`
	Suppressed  int            `json:"suppressed"`
}

// WriteJSON renders the result as a single JSON object.
func WriteJSON(w io.Writer, res Result) error {
	rep := jsonReport{
		Diagnostics: res.Diags,
		Counts: map[string]int{
			"error":   res.Errors(),
			"warning": len(res.Diags) - res.Errors(),
		},
		Suppressed: res.Suppressed,
	}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
