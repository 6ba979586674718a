// Command supernpu-repro regenerates the paper's evaluation exhibits.
//
// Usage:
//
//	supernpu-repro              # regenerate every table and figure
//	supernpu-repro -exp fig23   # regenerate one exhibit
//	supernpu-repro -list        # list exhibit ids
//	supernpu-repro -parallel 4  # bound the worker pool at 4
//	supernpu-repro -parallel 1 -v           # serial run, cache stats on stderr
//	supernpu-repro -cpuprofile cpu.pprof -memprofile mem.pprof
//	supernpu-repro -trace-out spans.jsonl   # phase-span trace (JSONL)
//	supernpu-repro -deadline 5m             # hard wall-clock budget
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"syscall"

	"supernpu/internal/experiments"
	"supernpu/internal/guard"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
)

func main() {
	// The work lives in run so its defers (profile flushes) execute before
	// the process exits with a status code.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "exhibit id (fig5..fig23, table1..table3, ablation-*), 'all' or 'ablations'")
	list := flag.Bool("list", false, "list available exhibit ids and exit")
	par := flag.Int("parallel", runtime.NumCPU(), "maximum worker count for parallel evaluation")
	verbose := flag.Bool("v", false, "print simulation-cache hit/miss statistics to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	traceOut := flag.String("trace-out", "", "write phase tracing spans (JSONL) to this file")
	deadline := flag.Duration("deadline", 0, "abort the run after this wall-clock budget (0 = none)")
	flag.Parse()

	// Ctrl-C (or an expired -deadline) cancels the context threaded through
	// every simulation loop; the run stops within one poll interval and
	// reports a guard-taxonomy error instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supernpu-repro: trace-out:", err)
			return 1
		}
		obs.SetTraceWriter(f)
		defer func() {
			obs.SetTraceWriter(nil)
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "supernpu-repro: trace-out:", err)
			}
		}()
	}

	parallel.SetWorkers(*par)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supernpu-repro: cpuprofile:", err)
			return 1
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "supernpu-repro: cpuprofile:", err)
			return 1
		}
		defer func() {
			rpprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "supernpu-repro: cpuprofile:", err)
			}
		}()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		fmt.Println(strings.Join(experiments.AblationIDs(), "\n"))
		return 0
	}

	var out string
	var err error
	switch *exp {
	case "all":
		out, err = experiments.RunAll(ctx)
	case "ablations":
		out, err = experiments.RunAblations(ctx)
	default:
		out, err = experiments.Run(ctx, *exp)
	}
	if err != nil {
		if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "supernpu-repro: run canceled:", err)
			return 130
		}
		fmt.Fprintln(os.Stderr, "supernpu-repro:", err)
		return 1
	}
	fmt.Print(out)

	if *verbose {
		printCacheStats()
	}
	return 0
}

// writeHeapProfile snapshots the live heap to path, reporting (not failing
// on) profile I/O errors: a broken profile must not fail a finished run.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-repro: memprofile:", err)
		return
	}
	runtime.GC() // settle the heap so the profile reflects live data
	if err := rpprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-repro: memprofile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-repro: memprofile:", err)
	}
}

func printCacheStats() {
	fmt.Fprintf(os.Stderr, "workers: %d\n", parallel.Workers())
	for _, s := range simcache.Snapshot() {
		fmt.Fprintf(os.Stderr, "cache %-10s %5d entries, %6d hits, %5d misses (%.0f%% hit rate)\n",
			s.Name, s.Entries, s.Hits, s.Misses, s.HitRate()*100)
	}
}
