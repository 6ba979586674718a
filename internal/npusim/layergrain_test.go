package npusim

// Tests for the layer-grain memoization beneath the whole-simulation
// cache: the multiplicity property (a shape repeated k times costs one
// unique simulation and reports k×-scaled totals), equality of every
// cached layer with the direct tile walk, and the faulted path bypassing
// the cache entirely.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/estimator"
	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// repeatedNet builds a valid network whose k compute layers all share one
// shape (a 3×3/pad-1/stride-1 conv preserves H×W, and M == C keeps the
// channel chain consistent).
func repeatedNet(k int) workload.Network {
	layers := make([]workload.Layer, k)
	for i := range layers {
		layers[i] = workload.Layer{Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: 14, W: 14, C: 64, R: 3, S: 3, M: 64, Stride: 1, Pad: 1}
	}
	return workload.Network{Name: fmt.Sprintf("repeat%d", k), Layers: layers}
}

func TestLayerDedupMultiplicity(t *testing.T) {
	const k = 6
	net := repeatedNet(k)
	cfg := arch.SuperNPU()

	t.Cleanup(func() {
		parallel.SetWorkers(0)
		simcache.ClearAll()
	})

	// One unique layer simulation: the first site's lookup misses and every
	// later site's lookup hits, whatever the worker count.
	var rep *Report
	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		simcache.ClearAll()
		var err error
		if rep, err = Simulate(context.Background(), cfg, net, 1); err != nil {
			t.Fatal(err)
		}
		hits, misses := layerCache.Counters()
		if misses != 1 {
			t.Errorf("workers=%d: unique layer simulations executed = %d, want 1", w, misses)
		}
		if hits != k-1 {
			t.Errorf("workers=%d: layer cache hits = %d, want %d (one per later site)", w, hits, k-1)
		}
	}

	// Totals scale by multiplicity; input delivery differs between the
	// first layer (DRAM) and the rest (on-chip move), so the per-layer
	// stats of sites 1..k-1 must be identical to each other and every
	// site must keep its own display name.
	if len(rep.Layers) != k {
		t.Fatalf("report has %d layers, want %d", len(rep.Layers), k)
	}
	if want := int64(k) * rep.Layers[0].MACs; rep.MACs != want {
		t.Errorf("total MACs = %d, want %d (k × per-layer)", rep.MACs, want)
	}
	if want := int64(k) * rep.Layers[0].ComputeCycles; rep.ComputeCycles != want {
		t.Errorf("compute cycles = %d, want %d (k × per-layer)", rep.ComputeCycles, want)
	}
	for i, st := range rep.Layers {
		if st.Layer.Name != net.Layers[i].Name {
			t.Errorf("layer %d kept name %q, want %q", i, st.Layer.Name, net.Layers[i].Name)
		}
		if i >= 2 {
			ref := rep.Layers[1]
			ref.Layer.Name = st.Layer.Name
			if st != ref {
				t.Errorf("layer %d stats differ from layer 1:\n got %+v\nwant %+v", i, st, ref)
			}
		}
	}
}

// TestLayerCacheMatchesDirectWalk checks the layer tier against the walk
// it memoises: for every SFQ design, network and compute layer at batches
// 1 and 3, the stats served through the cache — first-site misses and
// repeated-shape hits alike — equal simulateLayer's direct walk.
func TestLayerCacheMatchesDirectWalk(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	for _, cfg := range arch.Designs() {
		est, err := estimator.Estimate(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		proj := simcache.NPULayerProj(cfg, cyclesPerByte(est.Frequency, cfg.MemoryBandwidth))
		for _, net := range workload.All() {
			for _, l := range net.ComputeLayers() {
				for _, batch := range []int{1, 3} {
					got, err := simulateLayerCached(ctx, proj, l, batch)
					if err != nil {
						t.Fatal(err)
					}
					want, err := simulateLayer(ctx, proj, l, batch)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s/%s/%s b%d: cached stats differ from the direct walk:\n got %+v\nwant %+v",
							cfg.Name, net.Name, l.Name, batch, got, want)
					}
				}
			}
		}
	}
	if _, misses := layerCache.Counters(); misses == 0 {
		t.Fatal("no lookup went through the layer cache")
	}
}

func TestFaultedPathBypassesLayerCache(t *testing.T) {
	net := repeatedNet(3)
	cfg := arch.SuperNPU()
	fm := &faultinject.Model{Seed: 42, PulseDrop: 1e-6, BitFlip: 1e-8}

	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)

	if _, err := SimulateFaulted(context.Background(), cfg, net, 1, fm); err != nil {
		t.Fatal(err)
	}
	hits, misses := layerCache.Counters()
	if hits != 0 || misses != 0 {
		t.Errorf("faulted simulation touched the layer cache (%d hits, %d misses); site-keyed draws must stay per layer", hits, misses)
	}
}

func TestNegativeBatchRejectedNonNegativeMessage(t *testing.T) {
	net := repeatedNet(1)
	cfg := arch.SuperNPU()
	_, err := Simulate(context.Background(), cfg, net, -1)
	if err == nil {
		t.Fatal("negative batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("error %q should state the non-negative requirement and the batch-0 convention", got)
	}
	_, err = SimulateFaulted(context.Background(), cfg, net, -1, &faultinject.Model{Seed: 1, BitFlip: 1e-9})
	if err == nil {
		t.Fatal("negative faulted batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("faulted error %q should state the non-negative requirement and the batch-0 convention", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
