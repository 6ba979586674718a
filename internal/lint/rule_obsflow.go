// The obsflow rule: observability is write-only from the modeling
// packages. They may bump counters, observe histograms and open spans, but
// nothing they compute may read instrument state back — a modeled number
// that depends on a hit count or on whether tracing is on would break the
// guarantee that exhibits are byte-identical with tracing on and off (the
// differential golden test checks the property end to end; this rule
// rejects it at the source level).

package lint

import "go/ast"

// obsPkgPath is the observability package whose read surface this rule
// guards.
const obsPkgPath = "supernpu/internal/obs"

// obsReadNames is the read surface of internal/obs. Tracing is a read
// too: gating a modeled computation on observability state is exactly the
// feedback the determinism contract forbids.
var obsReadNames = map[string]bool{
	"Value":           true,
	"Count":           true,
	"Sum":             true,
	"BucketCounts":    true,
	"Edges":           true,
	"WritePrometheus": true,
	"Tracing":         true,
}

// checkObsFlow forbids calls to the obs read surface inside the modeling
// packages.
func checkObsFlow(p *Pass) {
	if !modelingPackages[p.Pkg.Name] {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
				return true
			}
			if obsReadNames[fn.Name()] {
				p.Reportf(call, "modeling package %s reads observability state (obs.%s); instruments are write-only so modeled numbers can never depend on them", p.Pkg.Name, fn.Name())
			}
			return true
		})
	}
}
