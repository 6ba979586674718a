// Command supernpu-estimate runs the three-layer SFQ estimator on a design
// and prints its frequency, power, area and per-unit breakdown (the Fig. 10
// output path), plus the Fig. 13 validation when requested.
//
// Usage:
//
//	supernpu-estimate -design SuperNPU
//	supernpu-estimate -design ERSFQ-Baseline
//	supernpu-estimate -validate
//
// Design names resolve as on the HTTP API: case-insensitively, with an
// "ERSFQ-" prefix selecting an SFQ design's energy-efficient biasing. The
// estimator models SFQ designs only, so the CMOS TPU is an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"supernpu"
	"supernpu/internal/core"
	"supernpu/internal/netlist"
	"supernpu/internal/pe"
	"supernpu/internal/report"
	"supernpu/internal/sfq"
)

// crossCheckNetlist compares the PE package's closed-form structure model
// against the gate-level netlist generator (internal/netlist): the two
// independent derivations of the Fig. 10 "structure model".
func crossCheckNetlist() {
	lib := sfq.NominalLibrary(sfq.RSFQ)
	pc := pe.Default8Bit(1)
	g := netlist.MAC(pc.Bits, pc.AccBits, pc.Registers)
	peInv := pc.Inventory()
	nlInv := g.Inventory()

	t := report.NewTable("PE structure model vs generated gate netlist",
		"quantity", "closed form (internal/pe)", "netlist (internal/netlist)")
	t.AddRow("AND gates", fmt.Sprintf("%d", peInv[sfq.AND]), fmt.Sprintf("%d", nlInv[sfq.AND]))
	t.AddRow("full adders", fmt.Sprintf("%d", peInv[sfq.FA]), fmt.Sprintf("%d", nlInv[sfq.FA]))
	t.AddRow("NDRO bits", fmt.Sprintf("%d", peInv[sfq.NDRO]), fmt.Sprintf("%d", nlInv[sfq.NDRO]))
	t.AddRow("balancing DFFs", fmt.Sprintf("%d", peInv[sfq.DFF]), fmt.Sprintf("%d", nlInv[sfq.DFF]))
	t.AddRow("pipeline stages", fmt.Sprintf("%d", pc.PipelineStages()), fmt.Sprintf("%d", g.Stages()))
	t.AddRow("JJs", fmt.Sprintf("%d", peInv.JJs(lib)), fmt.Sprintf("%d", nlInv.JJs(lib)))
	t.AddRow("frequency (GHz)",
		report.F(pc.Frequency(lib)/sfq.GHz, 2),
		report.F(g.Frequency(lib)/sfq.GHz, 2))
	t.AddNote("the closed form carries layout retiming margin beyond the idealized DAG; frequencies must match exactly")
	t.Render(os.Stdout)
}

func main() {
	design := flag.String("design", "SuperNPU", "SFQ design name (Baseline, Buffer opt., Resource opt., SuperNPU), optionally ERSFQ- prefixed")
	validate := flag.Bool("validate", false, "run the Fig. 13 model validation and exit")
	xcheck := flag.Bool("netlist", false, "cross-check the PE structure model against the generated gate netlist and exit")
	flag.Parse()

	if *xcheck {
		crossCheckNetlist()
		return
	}

	if *validate {
		rep := supernpu.ValidateModels()
		t := report.NewTable("model validation (Fig. 13)", "subject", "metric", "error %")
		for _, it := range rep.Items {
			t.AddRow(it.Unit, string(it.Metric), report.F(it.RelError()*100, 1))
		}
		t.Render(os.Stdout)
		return
	}

	d, err := supernpu.DesignByName(*design)
	if err == nil && d.Platform != core.SFQ {
		err = fmt.Errorf("%s is a CMOS design; the estimator models SFQ designs only", d.Name())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-estimate:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	est, err := supernpu.EstimateDesign(ctx, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-estimate:", err)
		os.Exit(1)
	}

	t := report.NewTable(fmt.Sprintf("estimate: %s (%s)", d.Name(), est.Config.Tech),
		"unit", "frequency (GHz)", "static power (W)", "area @28nm (mm^2)", "JJs (M)")
	for _, u := range est.Units {
		f := "-"
		if u.Frequency > 0 {
			f = report.F(u.Frequency/sfq.GHz, 1)
		}
		t.AddRow(u.Name, f, report.F(u.StaticPower, 2),
			report.F(u.Area*sfq.AIST10().ScaleAreaTo(28e-9)/sfq.SquareMillimetre, 2),
			report.F(float64(u.JJs)/1e6, 1))
	}
	t.AddRow("TOTAL", report.F(est.Frequency/sfq.GHz, 1), report.F(est.StaticPower, 1),
		report.F(est.Area28nm/sfq.SquareMillimetre, 1), report.F(float64(est.TotalJJs)/1e6, 1))
	t.AddNote("peak performance: %.0f TMAC/s", est.PeakMACs/1e12)
	t.Render(os.Stdout)
}
