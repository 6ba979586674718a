package supernpu

// Differential layer-grain test: the tentpole contract of the layer-grain
// memoization (PR 10) is that shape-keyed reuse NEVER changes a modeled
// number — it only skips recomputation. This test enforces it end-to-end
// by regenerating the full exhibit report cold, then again with only the
// whole-simulation caches cleared (every simulation reruns against a warm
// layer tier), then cold at one worker, demanding byte-identical output
// each time (and identical to the committed golden snapshot). The
// per-layer side — every cached walk equals the direct one — is pinned in
// the npusim, scalesim and mapper packages; the static side of the key
// contract is the supernpu-lint cachekey rule; the dynamic dedup
// accounting for Figs. 20–22 lives in TestLayerGrainSweepReduction.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"supernpu/internal/obs"
	"supernpu/internal/simcache"
)

func TestLayerGrainByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full report three times")
	}
	t.Cleanup(func() {
		simcache.ClearAll()
		SetParallelism(0)
	})

	run := func() string {
		t.Helper()
		out, err := RunAllExperiments(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	simcache.ClearAll()
	cold := run()

	simcache.Clear("npusim")
	simcache.Clear("scalesim")
	if warm := run(); warm != cold {
		t.Fatalf("report differs with the layer tier warm vs cold (%d vs %d bytes): reuse leaked into modeled numbers", len(warm), len(cold))
	}

	simcache.ClearAll()
	SetParallelism(1)
	serial := run()
	SetParallelism(0)
	if serial != cold {
		t.Fatal("report differs across worker counts")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden", "full_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if cold != string(want) {
		t.Error("report with layer-grain caching drifted from testdata/golden/full_report.golden")
	}
}

// layerSitesValue reads the write-only counter npusim publishes: the
// number of compute-layer sites its nominal simulations accumulated.
// Reading instruments is reserved for root-package tests (the obsflow
// rule keeps modeling packages write-only).
func layerSitesValue() int64 {
	return obs.Default.Counter("supernpu_npusim_layer_sites_total",
		"compute-layer sites accumulated by nominal npusim simulations").Value()
}

// TestLayerGrainSweepReduction pins the acceptance criterion of the
// layer-grain cache: across the Fig. 20–22 sweeps, the per-layer
// simulations actually executed (npusim.layer misses) must be at most half
// the compute-layer sites accumulated — a ≥2× reduction from shape dedup
// and cross-point projection sharing. The measured factor is logged for
// EXPERIMENTS.md.
func TestLayerGrainSweepReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three sweeps cold")
	}
	t.Cleanup(simcache.ClearAll)

	simcache.ClearAll()
	sites0 := layerSitesValue()
	for _, id := range []string{"fig20", "fig21", "fig22"} {
		if _, err := RunExperiment(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	sites := layerSitesValue() - sites0

	var executed, hits int64
	for _, s := range CacheStatistics() {
		if s.Name == "npusim.layer" {
			executed, hits = s.Misses, s.Hits
		}
	}
	if sites == 0 || executed == 0 {
		t.Fatalf("no layer accounting recorded (sites %d, executed %d)", sites, executed)
	}
	factor := float64(sites) / float64(executed)
	t.Logf("Figs. 20-22: %d layer sites, %d unique layer simulations executed (%d hits) — %.2fx reduction",
		sites, executed, hits, factor)
	if factor < 2 {
		t.Errorf("layer-grain dedup factor %.2fx < 2x over the Fig. 20-22 sweeps (%d sites, %d executed)",
			factor, sites, executed)
	}
}
