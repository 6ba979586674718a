// Command supernpu-explore runs the design-space sweeps that produced
// SuperNPU: buffer division (Fig. 20), resource balancing (Fig. 21),
// registers per PE (Fig. 22) — plus the bias-margin robustness sweep under
// the seeded SFQ fault model.
//
// Usage:
//
//	supernpu-explore -sweep division
//	supernpu-explore -sweep width -parallel 4
//	supernpu-explore -sweep registers -width 64 -parallel 1 -v
//	supernpu-explore -sweep margin -fault-seed 42
//	supernpu-explore -sweep division -ic-spread 0.05 -pulse-drop 1e-6
//	supernpu-explore -sweep width -trace-out spans.jsonl
//	supernpu-explore -sweep margin -deadline 10m
//
// Fault injection (-fault-seed, -ic-spread, -pulse-drop, -bit-flip,
// -erosion) perturbs every simulation of the sweep deterministically: the
// same seed reproduces the same output byte for byte at any worker count.
// The margin sweep sets its own rates and takes only -fault-seed; with it,
// -ic-spread, -pulse-drop, -bit-flip or -erosion exits 2.
// SIGINT/SIGTERM or an expired -deadline cancels the sweep cleanly (exit
// 130). The registers sweep accepts only Fig. 21's widths (256, 128, 64,
// 32, 16), each with its Fig. 21 buffer capacity; -width with any other
// sweep exits 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"supernpu"
	"supernpu/internal/guard"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/report"
	"supernpu/internal/simcache"
)

func main() {
	sweep := flag.String("sweep", "division", "sweep kind: division, width, registers, margin")
	width := flag.Int("width", 64, "PE array width for the registers sweep: 256, 128, 64, 32 or 16")
	par := flag.Int("parallel", runtime.NumCPU(), "maximum worker count for parallel evaluation")
	verbose := flag.Bool("v", false, "print simulation-cache hit/miss statistics to stderr")

	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault model")
	icSpread := flag.Float64("ic-spread", 0, "junction critical-current spread (fractional sigma)")
	pulseDrop := flag.Float64("pulse-drop", 0, "thermal pulse-drop probability per shift")
	bitFlip := flag.Float64("bit-flip", 0, "datapath bit-flip probability per MAC")
	erosion := flag.Float64("erosion", 0, "timing-margin erosion (fractional delay stretch)")

	traceOut := flag.String("trace-out", "", "write phase tracing spans (JSONL) to this file")
	deadline := flag.Duration("deadline", 0, "abort the sweep after this wall-clock budget (0 = none)")
	flag.Parse()

	// Visit sees only the flags set on the command line, so the -width
	// default does not count as a -width given to another sweep.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "width":
			if *sweep != "registers" {
				fmt.Fprintf(os.Stderr, "supernpu-explore: -width applies only to -sweep registers, not -sweep %s\n", *sweep)
				os.Exit(2)
			}
		case "ic-spread", "pulse-drop", "bit-flip", "erosion":
			if *sweep == "margin" {
				fmt.Fprintf(os.Stderr, "supernpu-explore: -sweep margin takes only -fault-seed, not -%s\n", f.Name)
				os.Exit(2)
			}
		}
	})

	// A model with every rate zero is disabled (Model.Enabled), so the
	// sweep runs nominal.
	fm := &supernpu.FaultModel{
		Seed: *faultSeed, IcSpread: *icSpread, PulseDrop: *pulseDrop,
		BitFlip: *bitFlip, MarginErosion: *erosion,
	}
	if err := fm.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-explore:", err)
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supernpu-explore: trace-out:", err)
			os.Exit(1)
		}
		obs.SetTraceWriter(f)
		defer func() {
			obs.SetTraceWriter(nil)
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "supernpu-explore: trace-out:", err)
			}
		}()
	}

	parallel.SetWorkers(*par)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if err := run(ctx, *sweep, *width, *faultSeed, fm); err != nil {
		if guard.IsCancellation(err) {
			fmt.Fprintln(os.Stderr, "supernpu-explore: sweep canceled:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "supernpu-explore:", err)
		os.Exit(1)
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "workers: %d\n", parallel.Workers())
		for _, s := range simcache.Snapshot() {
			fmt.Fprintln(os.Stderr, s)
		}
	}
}

// run prints one sweep: the margin sweep under the given seed, any other
// under the fault model fm (a disabled one is nominal).
func run(ctx context.Context, sweep string, width int, seed int64, fm *supernpu.FaultModel) error {
	sp := obs.StartSpan("sweep", obs.L("kind", sweep))
	defer sp.End()

	if sweep == "margin" {
		out, err := supernpu.MarginSweep(ctx, supernpu.MarginSweepOptions{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	var points []supernpu.SweepPoint
	var err error
	switch sweep {
	case "division":
		points, err = supernpu.ExploreDivision(ctx, []int{4, 16, 64, 256, 1024, 4096}, fm)
	case "width":
		points, err = supernpu.ExploreWidth(ctx, fm)
	case "registers":
		points, err = supernpu.ExploreRegisters(ctx, width, []int{1, 2, 4, 8, 16, 32}, fm)
	default:
		err = fmt.Errorf("unknown sweep %q (division, width, registers, margin)", sweep)
	}
	if err != nil {
		return err
	}

	title := fmt.Sprintf("%s sweep (geomean speedup vs Baseline)", sweep)
	if fm.Enabled() {
		title += fmt.Sprintf(" under faults [%s]", fm)
	}
	t := report.NewTable(title, "design", "single batch", "max batch", "area (norm.)")
	for _, p := range points {
		t.AddRow(p.Label, report.F(p.SingleBatch, 2), report.F(p.MaxBatch, 2), report.F(p.AreaRel, 3))
	}
	t.Render(os.Stdout)
	return nil
}
