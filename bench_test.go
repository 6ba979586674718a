package supernpu

import (
	"context"
	"runtime"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/dau"
	"supernpu/internal/experiments"
	"supernpu/internal/jsim"
	"supernpu/internal/npusim"
	"supernpu/internal/parallel"
	"supernpu/internal/scalesim"
	"supernpu/internal/simcache"
	"supernpu/internal/systolic"
	"supernpu/internal/workload"
)

// One benchmark per paper exhibit: running `go test -bench=.` regenerates
// every table and figure of the evaluation and reports how long each
// reproduction takes. The rendered outputs are logged once per benchmark.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	out, err := experiments.Run(context.Background(), id)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5NetworkComparison regenerates the network-unit delay/area
// comparison (Fig. 5).
func BenchmarkFig5NetworkComparison(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig7FeedbackFrequency regenerates the clocking-scheme frequency
// comparison, including the RCSJ circuit-level extraction (Fig. 7(c)).
func BenchmarkFig7FeedbackFrequency(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8DuplicatedPixels regenerates the ifmap duplication analysis
// (Fig. 8).
func BenchmarkFig8DuplicatedPixels(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig13Validation regenerates the estimator validation (Fig. 13).
func BenchmarkFig13Validation(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig15CycleBreakdown regenerates the Baseline preparation/compute
// breakdown (Fig. 15).
func BenchmarkFig15CycleBreakdown(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig17Roofline regenerates the single-batch roofline analysis
// (Fig. 17).
func BenchmarkFig17Roofline(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig20BufferSweep regenerates the buffer integration/division
// sweep (Fig. 20).
func BenchmarkFig20BufferSweep(b *testing.B) { benchExperiment(b, "fig20") }

// BenchmarkFig21ResourceBalancing regenerates the PE-width/buffer-capacity
// sweep (Fig. 21).
func BenchmarkFig21ResourceBalancing(b *testing.B) { benchExperiment(b, "fig21") }

// BenchmarkFig22RegisterSweep regenerates the registers-per-PE sweep
// (Fig. 22).
func BenchmarkFig22RegisterSweep(b *testing.B) { benchExperiment(b, "fig22") }

// BenchmarkFig23Performance regenerates the final cross-design performance
// evaluation (Fig. 23).
func BenchmarkFig23Performance(b *testing.B) { benchExperiment(b, "fig23") }

// BenchmarkTable1Setup regenerates the evaluation-setup table (Table I).
func BenchmarkTable1Setup(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Batches regenerates the batch-size table (Table II).
func BenchmarkTable2Batches(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3PowerEfficiency regenerates the power-efficiency table
// (Table III).
func BenchmarkTable3PowerEfficiency(b *testing.B) { benchExperiment(b, "table3") }

// --- sweep-engine benchmarks (serial vs parallel, cold vs cached) ---

// benchRunAll measures a cold-cache regeneration of every exhibit at the
// given worker count.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	for i := 0; i < b.N; i++ {
		simcache.ClearAll()
		if _, err := experiments.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSerial regenerates every exhibit on one worker with cold
// caches — the pre-parallelism behaviour of the harness.
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel regenerates every exhibit with the full worker
// pool, cold caches each iteration.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.NumCPU()) }

// BenchmarkRunAllWarm measures a fully memoised regeneration: every
// simulation, estimate and RCSJ extraction served from the caches.
func BenchmarkRunAllWarm(b *testing.B) {
	parallel.SetWorkers(runtime.NumCPU())
	defer parallel.SetWorkers(0)
	simcache.ClearAll()
	if _, err := experiments.RunAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig20BufferSweepWarm measures a Fig. 20 buffer sweep rerun with
// the whole-simulation caches cleared every iteration and only the
// estimator and jsim caches warm, so every sweep simulation runs again.
// There is no per-layer cache tier: each layer is charged in closed form.
func BenchmarkFig20BufferSweepWarm(b *testing.B) {
	simcache.ClearAll()
	b.Cleanup(simcache.ClearAll)
	if _, err := experiments.Run(context.Background(), "fig20"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simcache.Clear("npusim")
		simcache.Clear("scalesim")
		if _, err := experiments.Run(context.Background(), "fig20"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCold measures one uncached cycle simulation of ResNet-50
// on SuperNPU (the cache is cleared every iteration).
func BenchmarkSimulateCold(b *testing.B) {
	net := workload.ResNet50()
	cfg := arch.SuperNPU()
	for i := 0; i < b.N; i++ {
		simcache.ClearAll()
		if _, err := npusim.Simulate(context.Background(), cfg, net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCached measures the same simulation served from the memo
// cache — the repeated-reference pattern of the Figs. 20–22 sweeps.
func BenchmarkSimulateCached(b *testing.B) {
	net := workload.ResNet50()
	cfg := arch.SuperNPU()
	simcache.ClearAll()
	if _, err := npusim.Simulate(context.Background(), cfg, net, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npusim.Simulate(context.Background(), cfg, net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component micro-benchmarks ---

// BenchmarkNPUSimResNet50 measures one full cycle-based simulation of
// ResNet-50 on SuperNPU at its maximum batch.
func BenchmarkNPUSimResNet50(b *testing.B) {
	net := workload.ResNet50()
	cfg := arch.SuperNPU()
	for i := 0; i < b.N; i++ {
		if _, err := npusim.Simulate(context.Background(), cfg, net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSimResNet50 measures the CMOS baseline simulator on the
// same workload.
func BenchmarkScaleSimResNet50(b *testing.B) {
	net := workload.ResNet50()
	cfg := scalesim.TPU()
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.Simulate(context.Background(), cfg, net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystolicFunctional measures the cycle-stepped functional array
// computing a real convolution layer.
func BenchmarkSystolicFunctional(b *testing.B) {
	l := workload.Layer{Name: "bench", Kind: workload.Conv,
		H: 14, W: 14, C: 8, R: 3, S: 3, M: 32, Stride: 1, Pad: 1}
	arr, err := systolic.NewArray(32, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	in := dau.NewIfmap(l.C, l.H, l.W)
	w := systolic.NewWeights(l.M, l.C, l.R, l.S)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arr.Run(l, w, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSIMTransient measures the RCSJ transient simulation of a
// 12-stage JTL (the gate-parameter extraction path).
func BenchmarkJSIMTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := jsim.ExtractJTLParams(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateSuperNPU measures the three-layer estimator on the full
// SuperNPU configuration.
func BenchmarkEstimateSuperNPU(b *testing.B) {
	d := SuperNPU()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateDesign(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxBatchSolver measures the Table II batch solver across all
// workloads and designs.
func BenchmarkMaxBatchSolver(b *testing.B) {
	nets := workload.All()
	for i := 0; i < b.N; i++ {
		for _, cfg := range arch.Designs() {
			for _, net := range nets {
				npusim.MaxBatch(cfg, net)
			}
		}
	}
}

// --- ablation benchmarks (design-choice studies beyond the paper's own
// exhibits; see DESIGN.md) ---

// BenchmarkAblationDataflow quantifies the weight-stationary PE choice.
func BenchmarkAblationDataflow(b *testing.B) { benchExperiment(b, "ablation-dataflow") }

// BenchmarkAblationClockSkewing quantifies the skew-tuning frequency gain.
func BenchmarkAblationClockSkewing(b *testing.B) { benchExperiment(b, "ablation-skew") }

// BenchmarkAblationNoDAU quantifies the data alignment unit's value.
func BenchmarkAblationNoDAU(b *testing.B) { benchExperiment(b, "ablation-dau") }

// BenchmarkAblationBandwidth sweeps the off-chip bandwidth assumption.
func BenchmarkAblationBandwidth(b *testing.B) { benchExperiment(b, "ablation-bandwidth") }

// BenchmarkAblationScaling projects clocks under JJ feature-size scaling.
func BenchmarkAblationScaling(b *testing.B) { benchExperiment(b, "ablation-scaling") }

// BenchmarkAblationBatch sweeps the batch-size intensity lever.
func BenchmarkAblationBatch(b *testing.B) { benchExperiment(b, "ablation-batch") }

// BenchmarkAblationMemsys validates the flat-bandwidth DRAM abstraction.
func BenchmarkAblationMemsys(b *testing.B) { benchExperiment(b, "ablation-memsys") }

// BenchmarkMarginSweepCold measures the full bias-margin robustness exhibit
// from a cold cache: six fault variants, each a batched margin evaluation
// through per-worker reused solvers.
func BenchmarkMarginSweepCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simcache.ClearAll()
		if _, err := experiments.MarginSweep(context.Background(), experiments.MarginSweepOptions{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
