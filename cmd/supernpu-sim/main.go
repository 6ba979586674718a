// Command supernpu-sim runs the cycle-based performance simulator for one
// workload on one design and prints the per-layer breakdown.
//
// Usage:
//
//	supernpu-sim -design SuperNPU -net ResNet50
//	supernpu-sim -design Baseline -net VGG16 -batch 1 -layers
//	supernpu-sim -design ERSFQ-SuperNPU -net AlexNet
//
// Design names resolve as on the HTTP API: case-insensitively, with an
// "ERSFQ-" prefix selecting an SFQ design's energy-efficient biasing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"supernpu"
	"supernpu/internal/report"
)

func main() {
	design := flag.String("design", "SuperNPU", "design point name, optionally ERSFQ- prefixed")
	netName := flag.String("net", "ResNet50", "workload name")
	batch := flag.Int("batch", 0, "batch size (0 = design's max batch)")
	layers := flag.Bool("layers", false, "print the per-layer cycle breakdown (SFQ designs)")
	flag.Parse()

	d, err := supernpu.DesignByName(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-sim:", err)
		os.Exit(1)
	}
	net, err := supernpu.WorkloadByName(*netName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-sim:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ev, err := supernpu.Evaluate(ctx, d, net, *batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-sim:", err)
		os.Exit(1)
	}

	t := report.NewTable(fmt.Sprintf("%s on %s", ev.Network, ev.Design), "metric", "value")
	t.AddRow("batch", fmt.Sprintf("%d", ev.Batch))
	t.AddRow("clock", fmt.Sprintf("%.2f GHz", ev.Frequency/1e9))
	t.AddRow("peak", fmt.Sprintf("%.0f TMAC/s", ev.PeakMACs/1e12))
	t.AddRow("effective", fmt.Sprintf("%.2f TMAC/s", ev.Throughput/1e12))
	t.AddRow("PE utilization", fmt.Sprintf("%.2f %%", ev.PEUtilization*100))
	t.AddRow("batch latency", fmt.Sprintf("%.3g s", ev.Time))
	t.AddRow("total cycles", fmt.Sprintf("%d", ev.TotalCycles))
	t.AddRow("chip power", fmt.Sprintf("%.3g W", ev.ChipPower))
	if ev.SFQReport != nil {
		t.AddRow("preparation", fmt.Sprintf("%.1f %%", ev.PrepFraction*100))
		p := ev.SFQReport.Power
		t.AddRow("dynamic power", fmt.Sprintf("clock %.3g + MAC %.3g + buffer %.3g + DAU %.3g W",
			p.Clock, p.MAC, p.Buffer, p.DAU))
		tr := ev.SFQReport.Trace
		t.AddRow("access trace", fmt.Sprintf("%d mappings, %.2g buffer B, %.2g DRAM B",
			tr.Mappings, float64(tr.BufferBytes), float64(tr.DRAMBytes)))
	}
	t.Render(os.Stdout)

	if *layers && ev.SFQReport != nil {
		lt := report.NewTable("per-layer breakdown",
			"layer", "mappings", "compute", "weights", "ifmap move", "psum move", "stall")
		for _, ls := range ev.SFQReport.Layers {
			lt.AddRow(ls.Layer.Name,
				fmt.Sprintf("%d", ls.Mappings),
				fmt.Sprintf("%d", ls.ComputeCycles),
				fmt.Sprintf("%d", ls.WeightCycles),
				fmt.Sprintf("%d", ls.IfmapMoveCycles),
				fmt.Sprintf("%d", ls.PsumMoveCycles),
				fmt.Sprintf("%d", ls.StallCycles))
		}
		lt.Render(os.Stdout)
	}
}
