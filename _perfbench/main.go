// Command perfbench is the repository benchmark. It runs one workload with
// a seed, checks the program's outputs, and prints the workload's metrics,
// ending with one JSON result line:
//
//	bash _perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same work twice, untraced and then traced, requires the exact
// work counts of the two to match, reports the per-layer metrics and the
// tracing overhead, and writes the spans to .bench_build/. NOTES.md
// explains the workloads and the metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"supernpu/_perfbench/start"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// perSecond scales a rate by --seconds into a whole amount of work.
func perSecond(o options, rate float64) int { return max(1, int(rate*float64(o.seconds))) }

// workloadDef is one benchmark workload.
type workloadDef struct {
	// setup builds what the workload needs before its first timed
	// operation and returns the function that releases it.
	setup func(ctx context.Context, o options) (release func() error, err error)
	// run executes the workload's timed work once, with tr nil when
	// untraced.
	run func(ctx context.Context, o options, tr *tracer) (*pass, error)
}

var workloads = map[string]workloadDef{
	"repro":        {setup: setupRepro, run: runRepro},
	"margin":       {setup: setupMargin, run: runMargin},
	"serve":        {setup: setupServe, run: runServe},
	"serve-unique": {setup: setupServeUnique, run: runServeUnique},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	var o options
	var traceFlag int
	var setupProbe bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measurement length; sets the fixed amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.BoolVar(&setupProbe, "setup-probe", false, "internal: set the workload up, print ready and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	def, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx := context.Background()
	if setupProbe {
		os.Exit(runSetupProbe(ctx, def, o))
	}
	correct, err := run(ctx, def, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// runSetupProbe is the child side of the setup_s measurement: it sets the
// workload up and prints how long that took from the start of its package
// initialisation, which excludes exec and the Go runtime's own start.
func runSetupProbe(ctx context.Context, def workloadDef, o options) int {
	release, err := def.setup(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Println("ready", time.Since(start.T0).Nanoseconds())
	if err := release(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up release: %v\n", err)
		return 1
	}
	return 0
}

// repoFile resolves a path relative to the repository root, from either the
// root (the benchmark command) or this directory (its tests).
func repoFile(rel string) (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found; run from the repository root", rel)
}
