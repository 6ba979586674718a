// Command supernpu-explore runs the design-space sweeps that produced
// SuperNPU: buffer division (Fig. 20), resource balancing (Fig. 21),
// registers per PE (Fig. 22) — plus the bias-margin robustness sweep under
// the seeded SFQ fault model.
//
// Usage:
//
//	supernpu-explore -sweep division
//	supernpu-explore -sweep width -parallel 4
//	supernpu-explore -sweep registers -width 64 -seq -v
//	supernpu-explore -sweep margin -fault-seed 42
//	supernpu-explore -sweep division -ic-spread 0.05 -pulse-drop 1e-6
//	supernpu-explore -sweep margin -fault-seed 42 -checkpoint margin.ck
//	supernpu-explore -sweep margin -fault-seed 42 -checkpoint margin.ck -resume
//	supernpu-explore -sweep width -trace-out spans.jsonl
//	supernpu-explore -sweep margin -deadline 10m
//
// Fault injection (-fault-seed, -ic-spread, -pulse-drop, -bit-flip,
// -erosion) perturbs every simulation of the sweep deterministically: the
// same seed reproduces the same output byte for byte at any worker count.
// Long sweeps checkpoint each completed point to -checkpoint; a killed run
// restarted with -resume skips every checkpointed point without
// re-simulating it (without -resume the checkpoint file starts fresh).
// SIGINT/SIGTERM cancels the sweep cleanly, keeping the checkpoint intact.
package main

import (
	"context"
	"errors"
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
	width := flag.Int("width", 64, "PE array width for the registers sweep")
	par := flag.Int("parallel", runtime.NumCPU(), "maximum worker count for parallel evaluation")
	seq := flag.Bool("seq", false, "run serially (shorthand for -parallel 1)")
	verbose := flag.Bool("v", false, "print simulation-cache hit/miss statistics to stderr")

	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault model")
	icSpread := flag.Float64("ic-spread", 0, "junction critical-current spread (fractional sigma)")
	pulseDrop := flag.Float64("pulse-drop", 0, "thermal pulse-drop probability per shift")
	bitFlip := flag.Float64("bit-flip", 0, "datapath bit-flip probability per MAC")
	erosion := flag.Float64("erosion", 0, "timing-margin erosion (fractional delay stretch)")

	ckPath := flag.String("checkpoint", "", "checkpoint file for kill/resume of long sweeps")
	resume := flag.Bool("resume", false, "resume from an existing checkpoint instead of starting fresh")
	traceOut := flag.String("trace-out", "", "write phase tracing spans (JSONL) to this file")
	deadline := flag.Duration("deadline", 0, "abort the sweep after this wall-clock budget (0 = none)")
	flag.Parse()

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

	if *seq {
		parallel.SetWorkers(1)
	} else {
		parallel.SetWorkers(*par)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if err := run(ctx, *sweep, *width, *faultSeed, *icSpread, *pulseDrop, *bitFlip, *erosion, *ckPath, *resume); err != nil {
		if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadlineExceeded) {
			// A canceled sweep is a clean exit: the checkpoint holds every
			// completed point and -resume picks up from there.
			fmt.Fprintln(os.Stderr, "supernpu-explore: sweep canceled:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "supernpu-explore:", err)
		os.Exit(1)
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "workers: %d\n", parallel.Workers())
		for _, s := range simcache.Snapshot() {
			fmt.Fprintf(os.Stderr, "cache %-10s %5d entries, %6d hits, %5d misses (%.0f%% hit rate)\n",
				s.Name, s.Entries, s.Hits, s.Misses, s.HitRate()*100)
		}
	}
}

// openCheckpoint opens the checkpoint store; without -resume an existing
// file is discarded so stale points cannot leak into a fresh sweep.
func openCheckpoint(path string, resume bool) (*supernpu.Checkpoint, error) {
	if path == "" {
		if resume {
			return nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil
	}
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return supernpu.OpenCheckpoint(path)
}

func run(ctx context.Context, sweep string, width int, seed int64, icSpread, pulseDrop, bitFlip, erosion float64, ckPath string, resume bool) (err error) {
	sp := obs.StartSpan("sweep", obs.L("kind", sweep))
	defer sp.End()

	ck, cerr := openCheckpoint(ckPath, resume)
	if cerr != nil {
		return cerr
	}
	// A close failure means the checkpoint tail may not be durable, which
	// would corrupt a later -resume; surface it unless the sweep already
	// failed for another reason.
	defer func() {
		if cerr := ck.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if sweep == "margin" {
		out, err := supernpu.MarginSweep(ctx, supernpu.MarginSweepOptions{
			Seed:       seed,
			Checkpoint: ck,
		})
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	var fm *supernpu.FaultModel
	if icSpread != 0 || pulseDrop != 0 || bitFlip != 0 || erosion != 0 {
		fm = &supernpu.FaultModel{
			Seed: seed, IcSpread: icSpread, PulseDrop: pulseDrop,
			BitFlip: bitFlip, MarginErosion: erosion,
		}
	}
	o := supernpu.SweepOptions{Fault: fm, Checkpoint: ck}

	var points []supernpu.SweepPoint
	switch sweep {
	case "division":
		points, err = supernpu.ExploreDivisionOpts(ctx, []int{4, 16, 64, 256, 1024, 4096}, o)
	case "width":
		points, err = supernpu.ExploreWidthOpts(ctx, o)
	case "registers":
		points, err = supernpu.ExploreRegistersOpts(ctx, width, []int{1, 2, 4, 8, 16, 32}, o)
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
