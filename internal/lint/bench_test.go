package lint

import "testing"

// BenchmarkLintModule measures one full analyzer pass: load and type-check
// every package in the module, build the call graph, compute the
// transitive facts, and run the complete rulebook. This is the wall time
// every `make lint` and TestTreeClean pays, so its trajectory is recorded
// in EXPERIMENTS.md (the std-library source-importer memoisation in
// load.go is the difference between the cold and warm numbers).
func BenchmarkLintModule(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pkgs, err := LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		if res := Run(pkgs, Rules()); len(res.Diags) > 0 {
			b.Fatalf("tree not clean: %d finding(s); first: %s", len(res.Diags), res.Diags[0])
		}
	}
}
