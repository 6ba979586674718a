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

// BenchmarkExhibit regenerates every paper exhibit and ablation, one
// sub-benchmark per id in table order (BenchmarkExhibit/fig23), so running
// `go test -bench=.` reproduces the whole evaluation and reports how long
// each exhibit takes. Each rendered output is logged once.
func BenchmarkExhibit(b *testing.B) {
	for _, id := range append(experiments.IDs(), experiments.AblationIDs()...) {
		b.Run(id, func(b *testing.B) {
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
		})
	}
}

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
// cache — the repeated-reference pattern of the Figs. 20–22 sweeps. Its
// network is a fresh constructor copy, which keys as the template after a
// layer-by-layer comparison.
func BenchmarkSimulateCached(b *testing.B) { benchSimulateHit(b, workload.ResNet50()) }

// BenchmarkSimulateCachedTemplate is the hit on the shared template that
// workload.ByName hands out, which keys as the template in O(1).
func BenchmarkSimulateCachedTemplate(b *testing.B) {
	net, err := workload.ByName("ResNet50")
	if err != nil {
		b.Fatal(err)
	}
	benchSimulateHit(b, net)
}

// BenchmarkSimulateCachedCustom is the hit on a renamed copy of ResNet-50,
// a custom network that keys by its content.
func BenchmarkSimulateCachedCustom(b *testing.B) {
	net := workload.ResNet50()
	net.Name = "ResNet50-custom"
	benchSimulateHit(b, net)
}

// benchSimulateHit times warm npusim.Simulate hits of net on SuperNPU.
func benchSimulateHit(b *testing.B, net workload.Network) {
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
// 12-stage JTL (the gate-parameter extraction path). The extraction is
// memoised, so each iteration clears the jsim family first: otherwise every
// iteration after the first would time a cache hit.
func BenchmarkJSIMTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simcache.Clear("jsim")
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

// BenchmarkMarginSweepCold measures the full bias-margin robustness exhibit
// from a cold cache: six fault variants fanned out across the pool, each
// margin analysis bisecting serially on its own solver.
func BenchmarkMarginSweepCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simcache.ClearAll()
		if _, err := experiments.MarginSweep(context.Background(), experiments.MarginSweepOptions{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
