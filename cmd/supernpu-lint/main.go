// Command supernpu-lint runs the repository's domain static analyzer: the
// rulebook in internal/lint that machine-checks the determinism,
// concurrency, and error-handling contracts the evaluation pipeline
// depends on — including the interprocedural rules that follow facts
// across function and package boundaries through the module call graph.
//
// Usage:
//
//	supernpu-lint [-C dir] [-rules r1,r2] [-list]
//
// Output is one line per finding (file:line:col: message (rule)) and a
// summary line.
//
// Exit codes are CI-friendly: 0 for a clean tree, 1 when findings remain
// after suppression, 2 for usage or load failures. Findings are silenced
// in place with //lint:allow(rule) comments; see internal/lint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"supernpu/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir      = flag.String("C", ".", "directory inside the module to lint (the module root is found upward from here)")
		ruleList = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		list     = flag.Bool("list", false, "list the registered rules and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range lint.Rules() {
			fmt.Printf("%-16s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	rules := lint.Rules()
	if *ruleList != "" {
		rules = rules[:0]
		for _, name := range strings.Split(*ruleList, ",") {
			name = strings.TrimSpace(name)
			r, ok := lint.RuleByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "supernpu-lint: unknown rule %q (use -list)\n", name)
				return 2
			}
			rules = append(rules, r)
		}
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-lint:", err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-lint:", err)
		return 2
	}

	res := lint.Run(pkgs, rules)
	lint.WriteText(os.Stdout, res)
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}
