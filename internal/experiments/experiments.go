// Package experiments regenerates every table and figure of the paper's
// evaluation from the repository's models: each generator reproduces the
// rows/series of one exhibit, and one table (exhibits) maps every id to
// its generator. The benchmark harness (bench_test.go) and
// cmd/supernpu-repro are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"supernpu/internal/arch"
	"supernpu/internal/clocking"
	"supernpu/internal/cooling"
	"supernpu/internal/core"
	"supernpu/internal/estimator"
	"supernpu/internal/jsim"
	"supernpu/internal/netunit"
	"supernpu/internal/npusim"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/report"
	"supernpu/internal/roofline"
	"supernpu/internal/scalesim"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// exhibit is one reproducible exhibit: its id and the generator that
// renders it.
type exhibit struct {
	id  string
	gen func(context.Context) (string, error)
}

// exhibits is every exhibit this package regenerates: the paper's own in
// paper order, then the ablation studies that quantify the design choices
// DESIGN.md calls out. IDs, AblationIDs, Run, RunAll and RunAblations all
// read it, so a per-exhibit policy attaches here.
var exhibits = []exhibit{
	{"fig5", fig5}, {"fig7", fig7}, {"fig8", fig8}, {"fig13", fig13},
	{"fig15", fig15}, {"fig17", fig17}, {"fig20", fig20}, {"fig21", fig21},
	{"fig22", fig22}, {"fig23", fig23},
	{"table1", table1}, {"table2", table2}, {"table3", table3},

	{"ablation-dataflow", ablationDataflow}, {"ablation-skew", ablationClockSkewing},
	{"ablation-dau", ablationNoDAU}, {"ablation-bandwidth", ablationBandwidth},
	{"ablation-scaling", ablationScaling}, {"ablation-batch", ablationBatch},
	{"ablation-memsys", ablationMemsys},
}

// paper and ablations split the table after its 13 paper exhibits.
var paper, ablations = exhibits[:13], exhibits[13:]

// IDs lists every reproducible paper exhibit in paper order.
func IDs() []string { return idsOf(paper) }

// AblationIDs lists the ablation studies, beyond the paper's own exhibits.
func AblationIDs() []string { return idsOf(ablations) }

func idsOf(es []exhibit) []string {
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates one exhibit or ablation and returns its rendered text.
// An unknown id is an error and leaves no telemetry behind.
func Run(ctx context.Context, id string) (string, error) {
	for _, e := range exhibits {
		if e.id == id {
			return e.run(ctx)
		}
	}
	return "", fmt.Errorf("experiments: unknown exhibit %q (have %s and ablations %s)",
		id, strings.Join(IDs(), ", "), strings.Join(AblationIDs(), ", "))
}

// run regenerates e, timed into the supernpu_exhibit_seconds histogram
// (labelled by exhibit id) and wrapped in an "exhibit" tracing span; both
// are pure telemetry and never influence the rendered bytes.
func (e exhibit) run(ctx context.Context) (string, error) {
	defer obs.Time(obs.Default.Histogram("supernpu_exhibit_seconds",
		"wall time to regenerate one exhibit", obs.DurationEdges, obs.L("exhibit", e.id)))()
	sp := obs.StartSpan("exhibit", obs.L("id", e.id))
	defer sp.End()
	return e.gen(ctx)
}

// RunAll regenerates every paper exhibit, inside one "report" span.
func RunAll(ctx context.Context) (string, error) {
	sp := obs.StartSpan("report")
	defer sp.End()
	return runEach(ctx, paper)
}

// RunAblations regenerates every ablation study.
func RunAblations(ctx context.Context) (string, error) { return runEach(ctx, ablations) }

// runEach renders es concurrently (bounded by parallel.Workers()) and
// joins them in table order, each followed by a blank line, so the output
// is byte-identical to a serial run.
func runEach(ctx context.Context, es []exhibit) (string, error) {
	outs := make([]string, len(es))
	err := parallel.ForEachContext(ctx, len(es), func(ctx context.Context, i int) error {
		out, err := es[i].run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", es[i].id, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, out := range outs {
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig5 compares the three on-chip network designs' critical-path delay and
// area over PE-array widths (Fig. 5).
func fig5(ctx context.Context) (string, error) {
	lib := sfq.NominalLibrary(sfq.RSFQ)
	t := report.NewTable("Fig. 5: network-unit critical-path delay (ps) and area (mm^2)",
		"PE array width", "2D tree delay", "1D tree delay", "systolic delay",
		"2D tree area", "1D tree area", "systolic area")
	for _, w := range []int{4, 16, 64} {
		cfg := netunit.Config{Width: w, Bits: 8}
		row := []string{fmt.Sprintf("%d", w)}
		for _, d := range netunit.Designs() {
			row = append(row, report.F(netunit.CriticalPathDelay(d, cfg, lib)/sfq.Picosecond, 1))
		}
		for _, d := range netunit.Designs() {
			row = append(row, report.F(netunit.Area(d, cfg, lib)/sfq.SquareMillimetre, 3))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: 2D splitter tree exceeds 800 ps at width 64; the systolic array is fastest and smallest")
	return t.String(), nil
}

// fig7 reports the feedback-loop frequency penalty for the full adder and
// shift register under both clocking schemes (Fig. 7(c)), plus the RCSJ
// circuit-level extraction that anchors the gate level.
func fig7(ctx context.Context) (string, error) {
	lib := sfq.NominalLibrary(sfq.RSFQ)
	t := report.NewTable("Fig. 7(c): feedback-loop impact on clock frequency (GHz)",
		"circuit", "without feedback (concurrent-flow)", "with feedback (counter-flow)")
	for _, c := range []struct {
		name string
		g    sfq.GateKind
	}{{"Full adder", sfq.FA}, {"Shift register", sfq.DFF}} {
		g := lib.Gate(c.g)
		p := clocking.Pair{Src: g, Dst: g}
		t.AddRow(c.name,
			report.F(clocking.Frequency(p.CCT(clocking.ConcurrentFlowSkewed))/sfq.GHz, 1),
			report.F(clocking.Frequency(p.CCT(clocking.CounterFlow))/sfq.GHz, 1))
	}
	t.AddNote("paper: FA 66 -> 30 GHz, SR 133 -> 71 GHz")

	params, err := jsim.ExtractJTLParams(ctx)
	if err != nil {
		return "", err
	}
	t.AddNote("RCSJ transient extraction: JTL stage delay %.2f ps, switch energy %.3f aJ/JJ",
		params.StageDelay/sfq.Picosecond, params.SwitchEnergyPerJJ/sfq.Attojoule)
	return t.String(), nil
}

// fig8 reports the duplicated-ifmap-pixel ratio for the naive buffering
// scheme (Fig. 8).
func fig8(ctx context.Context) (string, error) {
	s := report.NewSeries("Fig. 8: duplicated ifmap pixels under naive row buffering", "% duplicated")
	for _, name := range []string{"AlexNet", "ResNet50", "VGG16"} {
		net, err := workload.ByName(name)
		if err != nil {
			return "", err
		}
		s.Add(name, net.DuplicatedPixelRatio()*100)
	}
	return s.String() + "paper: over 90% for all three networks\n", nil
}

// fig13 reports the estimator validation against the die/post-layout
// references (Fig. 13).
func fig13(ctx context.Context) (string, error) {
	rep := estimator.Validate()
	t := report.NewTable("Fig. 13: model validation vs die/post-layout references",
		"subject", "metric", "reference", "model", "error %")
	for _, it := range rep.Items {
		t.AddRow(it.Unit, string(it.Metric),
			fmt.Sprintf("%.4g", it.Measured), fmt.Sprintf("%.4g", it.Modeled),
			report.F(it.RelError()*100, 1))
	}
	t.AddNote("mean errors: uarch %.1f/%.1f/%.1f %%, arch %.1f/%.1f/%.1f %% (freq/power/area)",
		rep.MeanError(estimator.Microarch, estimator.Frequency)*100,
		rep.MeanError(estimator.Microarch, estimator.StaticPower)*100,
		rep.MeanError(estimator.Microarch, estimator.Area)*100,
		rep.MeanError(estimator.Arch, estimator.Frequency)*100,
		rep.MeanError(estimator.Arch, estimator.StaticPower)*100,
		rep.MeanError(estimator.Arch, estimator.Area)*100)
	t.AddNote("paper: uarch 5.6/1.2/1.3 %%, arch 4.7/2.3/9.5 %%")
	return t.String(), nil
}

// fig15 reports the Baseline's preparation-vs-computation cycle breakdown
// per workload (Fig. 15).
func fig15(ctx context.Context) (string, error) {
	t := report.NewTable("Fig. 15: Baseline cycle breakdown (batch 1)",
		"workload", "preparation %", "computation %")
	for _, net := range workload.All() {
		r, err := npusim.Simulate(ctx, arch.Baseline(), net, 1)
		if err != nil {
			return "", err
		}
		t.AddRow(net.Name,
			report.F(r.PrepFraction()*100, 1),
			report.F((1-r.PrepFraction())*100, 1))
	}
	t.AddNote("paper: preparation above 90%% for every workload")
	return t.String(), nil
}

// fig17 reports the roofline analysis of the Baseline at a single batch
// (Fig. 17).
func fig17(ctx context.Context) (string, error) {
	est, err := estimator.Estimate(ctx, arch.Baseline())
	if err != nil {
		return "", err
	}
	m := roofline.Model{PeakMACs: est.PeakMACs, Bandwidth: arch.DefaultBandwidth}
	t := report.NewTable("Fig. 17: Baseline roofline at batch 1",
		"workload", "intensity (MAC/B)", "roofline (TMAC/s)", "effective (TMAC/s)", "roofline util %")
	var sumEff float64
	for _, net := range workload.All() {
		i := roofline.Intensity(net, 1)
		r, err := npusim.Simulate(ctx, arch.Baseline(), net, 1)
		if err != nil {
			return "", err
		}
		sumEff += r.Throughput
		t.AddRow(net.Name, report.F(i, 0),
			report.F(m.Attainable(i)/1e12, 1),
			report.F(r.Throughput/1e12, 2),
			report.F(m.Utilization(i)*100, 2))
	}
	t.AddNote("peak %.0f TMAC/s; average effective %.2f TMAC/s (paper: 6.45, <0.2%% of peak)",
		est.PeakMACs/1e12, sumEff/6/1e12)
	return t.String(), nil
}

// fig20 reports the buffer integration/division sweep (Fig. 20).
func fig20(ctx context.Context) (string, error) {
	points, err := core.ExploreDivision(ctx, []int{4, 16, 64, 256, 1024, 4096}, nil)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Fig. 20: on-chip buffer optimisation sweep (speedup vs Baseline, geomean)",
		"design", "single batch", "max batch", "area (norm.)")
	for _, p := range points {
		t.AddRow(p.Label, report.F(p.SingleBatch, 2), report.F(p.MaxBatch, 2), report.F(p.AreaRel, 3))
	}
	t.AddNote("paper: single-batch 6.26x and max-batch ~20x from division 64, with saturation beyond")
	return t.String(), nil
}

// fig21 reports the resource-balancing sweep (Fig. 21).
func fig21(ctx context.Context) (string, error) {
	points, err := core.ExploreWidth(ctx, nil)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Fig. 21: resource balancing (max-batch speedup vs Baseline, geomean)",
		"PE width / buffer", "max batch", "area (norm.)")
	for _, p := range points {
		t.AddRow(p.Label, report.F(p.MaxBatch, 2), report.F(p.AreaRel, 3))
	}
	t.AddNote("paper: ~47x at width 128 and ~42x at width 64; narrower arrays fall off")
	return t.String(), nil
}

// fig22 reports the registers-per-PE sweep on the 64- and 128-wide designs
// (Fig. 22).
func fig22(ctx context.Context) (string, error) {
	regs := []int{1, 2, 4, 8, 16, 32}
	w64, err := core.ExploreRegisters(ctx, 64, regs, nil)
	if err != nil {
		return "", err
	}
	w128, err := core.ExploreRegisters(ctx, 128, regs, nil)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Fig. 22: registers per PE (max-batch speedup vs Baseline, geomean)",
		"registers", "width 64", "width 128")
	for i, r := range regs {
		t.AddRow(fmt.Sprintf("%d", r), report.F(w64[i].MaxBatch, 2), report.F(w128[i].MaxBatch, 2))
	}
	t.AddNote("paper: width 128 is memory-bound; width 64 keeps scaling -> SuperNPU = width 64 with 8 registers")
	return t.String(), nil
}

// fig23 reports the final performance evaluation: all five designs over the
// six workloads, normalised to the TPU (Fig. 23).
func fig23(ctx context.Context) (string, error) {
	designs := core.DesignPoints()
	t := report.NewTable("Fig. 23: speedup over the TPU core (effective throughput)",
		append([]string{"workload"}, designNames(designs)...)...)

	sums := make([]float64, len(designs))
	logs := make([]float64, len(designs))
	for _, net := range workload.All() {
		row := []string{net.Name}
		ref, err := core.Evaluate(ctx, designs[0], net, 0)
		if err != nil {
			return "", err
		}
		for i, d := range designs {
			ev, err := core.Evaluate(ctx, d, net, 0)
			if err != nil {
				return "", err
			}
			sp := ev.Throughput / ref.Throughput
			sums[i] += sp / 6
			logs[i] += ln(sp) / 6
			row = append(row, report.F(sp, 2))
		}
		t.AddRow(row...)
	}
	mean := []string{"mean"}
	gm := []string{"geomean"}
	for i := range designs {
		mean = append(mean, report.F(sums[i], 2))
		gm = append(gm, report.F(exp(logs[i]), 2))
	}
	t.AddRow(mean...)
	t.AddRow(gm...)
	t.AddNote("paper averages: Baseline 0.4x, Buffer opt. 7.7x, Resource opt. 17.3x, SuperNPU 23x (MobileNet 42x)")
	return t.String(), nil
}

// table1 reports the evaluation setup of every design (Table I).
func table1(ctx context.Context) (string, error) {
	t := report.NewTable("Table I: evaluation setup",
		"design", "array WxH", "regs/PE", "ifmap buf", "output buf", "psum buf", "weight buf",
		"freq (GHz)", "peak (TMAC/s)", "area @28nm (mm^2)")
	t.AddRow("TPU", "256x256", "1", "24 MB unified", "", "", "",
		"0.7", "45.9", "<331")
	for _, cfg := range arch.Designs() {
		est, err := estimator.Estimate(ctx, cfg)
		if err != nil {
			return "", err
		}
		psum := "-"
		if !cfg.IntegratedOutput {
			psum = mb(cfg.PsumBufBytes)
		}
		t.AddRow(cfg.Name,
			fmt.Sprintf("%dx%d", cfg.ArrayWidth, cfg.ArrayHeight),
			fmt.Sprintf("%d", cfg.Registers),
			fmt.Sprintf("%s /%d", mb(cfg.IfmapBufBytes), cfg.IfmapChunks),
			fmt.Sprintf("%s /%d", mb(cfg.OutputBufBytes), cfg.OutputChunks),
			psum,
			kb(cfg.WeightBufBytes),
			report.F(est.Frequency/sfq.GHz, 1),
			report.F(est.PeakMACs/1e12, 0),
			report.F(est.Area28nm/sfq.SquareMillimetre, 0))
	}
	t.AddNote("paper: 52.6 GHz, peak 3366/842 TMAC/s, areas 283/285/298/299 mm^2")
	return t.String(), nil
}

// table2 reports every design's maximum batch per workload (Table II).
func table2(ctx context.Context) (string, error) {
	designs := core.DesignPoints()
	t := report.NewTable("Table II: batch size per design (on-chip, no extra DRAM traffic)",
		append([]string{"workload"}, designNames(designs)...)...)
	for _, net := range workload.All() {
		row := []string{net.Name}
		for _, d := range designs {
			row = append(row, fmt.Sprintf("%d", d.MaxBatch(net)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: TPU 22/20/20/20/20/3; SuperNPU 30 for all but VGG16 (7)")
	return t.String(), nil
}

// table3 reports the power-efficiency evaluation (Table III). Following the
// paper's accounting, the normalised perf/W of a design is its mean speedup
// over the TPU (Fig. 23's average) times the power ratio — throughput
// ratios are averaged per workload before dividing by power.
func table3(ctx context.Context) (string, error) {
	t := report.NewTable("Table III: power efficiency",
		"design", "power (W)", "perf/W (norm. to TPU)")
	tpuPower := scalesim.TPU().Power
	t.AddRow("TPU", report.F(tpuPower, 0), "1.00")

	for _, tech := range []sfq.Technology{sfq.RSFQ, sfq.ERSFQ} {
		cfg := arch.SuperNPU()
		cfg.Tech = tech
		speedup, power, err := meanSpeedupAndPower(ctx, core.SFQDesign(cfg))
		if err != nil {
			return "", err
		}
		for _, sc := range []cooling.Scenario{cooling.FreeCooling, cooling.FullCooling} {
			charged, rel := cooling.RelativePerfPerWatt(sc, power, speedup, tpuPower)
			t.AddRow(fmt.Sprintf("%s-SuperNPU (%s)", tech, sc),
				fmt.Sprintf("%.3g", charged),
				fmt.Sprintf("%.3g", rel))
		}
	}
	t.AddNote("paper: RSFQ 964 W (0.95x; 0.002x w/ cooling), ERSFQ 1.9 W (490x; 1.23x w/ cooling)")
	return t.String(), nil
}

// meanSpeedupAndPower evaluates a design across the six workloads and
// returns its mean speedup over the TPU and its mean chip power. The
// workloads evaluate concurrently; the means accumulate in workload order,
// keeping the floats bit-identical to a serial run.
func meanSpeedupAndPower(ctx context.Context, d core.Design) (speedup, power float64, err error) {
	tpu := core.CMOSDesign(scalesim.TPU())
	nets := workload.All()
	speedups := make([]float64, len(nets))
	powers := make([]float64, len(nets))
	err = parallel.ForEachContext(ctx, len(nets), func(ctx context.Context, i int) error {
		ref, err := core.Evaluate(ctx, tpu, nets[i], 0)
		if err != nil {
			return err
		}
		ev, err := core.Evaluate(ctx, d, nets[i], 0)
		if err != nil {
			return err
		}
		speedups[i] = ev.Throughput / ref.Throughput / 6
		powers[i] = ev.ChipPower / 6
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range nets {
		speedup += speedups[i]
		power += powers[i]
	}
	return speedup, power, nil
}

func designNames(ds []core.Design) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name())
	}
	return out
}

func mb(bytes int) string { return fmt.Sprintf("%g MB", float64(bytes)/float64(arch.MB)) }
func kb(bytes int) string { return fmt.Sprintf("%d KB", bytes/arch.KB) }

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }
