package experiments

import (
	"context"
	"fmt"

	"supernpu/internal/arch"
	"supernpu/internal/clocking"
	"supernpu/internal/core"
	"supernpu/internal/memsys"
	"supernpu/internal/npusim"
	"supernpu/internal/pe"
	"supernpu/internal/report"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// ablationDataflow quantifies the weight-stationary choice (Section III-B):
// the output-stationary PE's accumulator feedback forces counter-flow
// clocking and costs the whole NPU its clock.
func ablationDataflow(ctx context.Context) (string, error) {
	lib := sfq.NominalLibrary(sfq.RSFQ)
	t := report.NewTable("Ablation: PE dataflow (Section III-B design choice)",
		"dataflow", "feedback loop", "clocking", "PE clock (GHz)", "SuperNPU peak (TMAC/s)")
	for _, df := range []pe.Dataflow{pe.WeightStationary, pe.InputStationary, pe.OutputStationary} {
		cfg := pe.Default8Bit(1)
		cfg.Dataflow = df
		f := cfg.Frequency(lib)
		scheme := clocking.LoopScheme(df.HasFeedback())
		t.AddRow(df.String(),
			fmt.Sprintf("%v", df.HasFeedback()),
			scheme.String(),
			report.F(f/sfq.GHz, 1),
			report.F(float64(arch.SuperNPU().PEs())*f/1e12, 0))
	}
	t.AddNote("the WS/IS pipelines run over 2x faster than the OS accumulate-in-place loop")
	return t.String(), nil
}

// ablationClockSkewing quantifies the clock-skewing frequency-enhancing
// technique (Section IV-A2): without skew tuning the clock pulse must wait
// out the full data propagation of every pair.
func ablationClockSkewing(ctx context.Context) (string, error) {
	lib := sfq.NominalLibrary(sfq.RSFQ)
	skewed := pe.Default8Bit(1).CriticalPairs(lib)
	// The unskewed variant exposes each pair's full data path against a
	// single-JTL clock hop.
	unskewed := make([]clocking.Pair, len(skewed))
	for i, p := range skewed {
		unskewed[i] = clocking.Pair{
			Src: p.Src, Dst: p.Dst,
			DataWire:  p.MismatchWire,
			ClockWire: []sfq.Gate{lib.Gate(sfq.JTL)},
		}
	}
	fSkew := clocking.PipelineFrequency(skewed, clocking.ConcurrentFlowSkewed)
	fPlain := clocking.PipelineFrequency(unskewed, clocking.ConcurrentFlow)

	t := report.NewTable("Ablation: clock skewing (Section IV-A2)",
		"clocking", "PE clock (GHz)", "relative")
	t.AddRow("concurrent-flow + skew tuning", report.F(fSkew/sfq.GHz, 1), "1.00")
	t.AddRow("concurrent-flow, unskewed", report.F(fPlain/sfq.GHz, 1), report.F(fPlain/fSkew, 2))
	t.AddNote("skew tuning hides the data/clock arrival mismatch the long MAC paths create")
	return t.String(), nil
}

// ablationNoDAU quantifies the data alignment unit: without it, every ifmap
// buffer row stores all pixels its PE row needs, so duplicated pixels
// (Fig. 8) consume the buffer and collapse the batch.
func ablationNoDAU(ctx context.Context) (string, error) {
	t := report.NewTable("Ablation: removing the data alignment unit",
		"workload", "duplicated pixels %", "batch w/ DAU", "batch w/o DAU", "throughput w/o DAU (rel.)")
	for _, net := range workload.All() {
		dup := net.DuplicatedPixelRatio()
		cfg := arch.SuperNPU()
		withDAU, err := npusim.Simulate(ctx, cfg, net, 0)
		if err != nil {
			return "", err
		}
		// Naive buffering stores 1/(1−dup)× the data: the effective ifmap
		// capacity shrinks accordingly.
		naive := cfg
		naive.Name = "SuperNPU w/o DAU"
		naive.IfmapBufBytes = int(float64(cfg.IfmapBufBytes) * (1 - dup))
		withoutDAU, err := npusim.Simulate(ctx, naive, net, 0)
		if err != nil {
			return "", err
		}
		t.AddRow(net.Name,
			report.F(dup*100, 1),
			fmt.Sprintf("%d", withDAU.Batch),
			fmt.Sprintf("%d", withoutDAU.Batch),
			report.F(withoutDAU.Throughput/withDAU.Throughput, 2))
	}
	t.AddNote("storing duplicates costs up to ~10x of the ifmap capacity and with it the batch-driven reuse")
	return t.String(), nil
}

// ablationBandwidth sweeps the off-chip bandwidth around the paper's
// 300 GB/s HBM assumption, exposing where SuperNPU turns memory-bound.
func ablationBandwidth(ctx context.Context) (string, error) {
	t := report.NewTable("Ablation: off-chip memory bandwidth (SuperNPU)",
		"bandwidth (GB/s)", "avg effective (TMAC/s)", "avg PE utilization %")
	for _, gb := range []float64{75, 150, 300, 600, 1200} {
		cfg := arch.SuperNPU()
		cfg.MemoryBandwidth = gb * 1e9
		var tput, util float64
		for _, net := range workload.All() {
			r, err := npusim.Simulate(ctx, cfg, net, 0)
			if err != nil {
				return "", err
			}
			tput += r.Throughput / 6
			util += r.PEUtilization / 6
		}
		t.AddRow(report.F(gb, 0), report.F(tput/1e12, 1), report.F(util*100, 1))
	}
	t.AddNote("the paper's 300 GB/s setting sits on the knee: halving bandwidth hurts, doubling helps little")
	return t.String(), nil
}

// ablationScaling projects the SuperNPU clock under the JJ feature-size
// scaling rule of the paper's footnote 2 (linear down to ~200 nm).
func ablationScaling(ctx context.Context) (string, error) {
	t := report.NewTable("Ablation: JJ feature-size scaling (paper footnote 2)",
		"process", "PE clock (GHz)", "SuperNPU peak (TMAC/s)")
	for _, f := range []float64{1.0, 0.5, 0.25, 0.2} {
		p := sfq.AIST10().ScaledTo(f * sfq.Micrometre)
		lib := sfq.NewLibrary(p, sfq.RSFQ)
		clk := pe.Default8Bit(1).Frequency(lib)
		t.AddRow(fmt.Sprintf("%.2f um", f),
			report.F(clk/sfq.GHz, 0),
			report.F(float64(arch.SuperNPU().PEs())*clk/1e12, 0))
	}
	t.AddNote("frequency scales ~1/feature-size to the 200 nm validity floor (TFFs have run at 770 GHz there)")
	return t.String(), nil
}

// ablationBatch shows the computational-intensity mechanism: SuperNPU's
// throughput vs batch size on ResNet-50.
func ablationBatch(ctx context.Context) (string, error) {
	net := workload.ResNet50()
	tpu, err := core.Evaluate(ctx, core.DesignPoints()[0], net, 0)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Ablation: batch size vs throughput (SuperNPU, ResNet-50)",
		"batch", "effective (TMAC/s)", "speedup vs TPU")
	for _, b := range []int{1, 2, 4, 8, 16, 30} {
		r, err := npusim.Simulate(ctx, arch.SuperNPU(), net, b)
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprintf("%d", b),
			report.F(r.Throughput/1e12, 1),
			report.F(r.Throughput/tpu.Throughput, 2))
	}
	t.AddNote("batching multiplies the MACs per mapped weight — the intensity lever of Fig. 17/21")
	return t.String(), nil
}

// ablationMemsys validates the flat-bandwidth DRAM abstraction the
// simulators use: with HBM2's request overhead and burst granularity, the
// NPU's megabyte-scale layer transfers achieve near-peak bandwidth, while
// fine-grained access (the regime shift-register buffers avoid) would not.
func ablationMemsys(ctx context.Context) (string, error) {
	m := memsys.HBM2()
	t := report.NewTable("Ablation: off-chip transfer granularity (HBM2 model)",
		"transfer size", "effective bandwidth (GB/s)", "efficiency %")
	for _, n := range []int64{256, 4 << 10, 64 << 10, 1 << 20, 24 << 20} {
		t.AddRow(byteLabel(n),
			report.F(m.EffectiveBandwidth(n)/1e9, 1),
			report.F(m.Efficiency(n)*100, 1))
	}
	t.AddNote("knee at %s; NPU layer transfers are MB-scale, so the flat 300 GB/s abstraction holds",
		byteLabel(m.KneeBytes()))
	return t.String(), nil
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
