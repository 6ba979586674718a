package scalesim

// Layer-grain memoization tests for the CMOS reference simulator: the
// serial mapping loop dedups repeated shapes through the scalesim.layer
// cache, and every cached layer equals the direct tile walk.

import (
	"context"
	"fmt"
	"testing"

	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

func repeatedNet(k int) workload.Network {
	layers := make([]workload.Layer, k)
	for i := range layers {
		layers[i] = workload.Layer{Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: 28, W: 28, C: 32, R: 3, S: 3, M: 32, Stride: 1, Pad: 1}
	}
	return workload.Network{Name: fmt.Sprintf("repeat%d", k), Layers: layers}
}

func TestLayerDedupWithinNetwork(t *testing.T) {
	const k = 5
	net := repeatedNet(k)

	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)

	rep, err := Simulate(context.Background(), TPU(), net, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := layerCache.Counters()
	if misses != 1 {
		t.Errorf("unique layer walks executed = %d, want 1", misses)
	}
	if hits != k-1 {
		t.Errorf("layer cache hits = %d, want %d", hits, k-1)
	}
	if rep.MACs%int64(k) != 0 {
		t.Errorf("total MACs %d not a multiple of the %d identical layers", rep.MACs, k)
	}
}

// TestLayerCacheMatchesDirectWalk checks the layer tier against the walk
// it memoises: for the TPU, every network and compute layer at batches 1
// and 3, the charges served through the cache equal simulateLayer's.
func TestLayerCacheMatchesDirectWalk(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	cfg := TPU()
	proj := simcache.ScaleProj{
		ArrayHeight: cfg.ArrayHeight, ArrayWidth: cfg.ArrayWidth,
		BufferBytes: cfg.BufferBytes, CyclesPerByte: cfg.Frequency / cfg.Bandwidth,
	}
	for _, net := range workload.All() {
		for _, l := range net.ComputeLayers() {
			for _, batch := range []int{1, 3} {
				got := simulateLayerCached(proj, l.Shape(), batch)
				if want := simulateLayer(proj, l.Shape(), batch); got != want {
					t.Fatalf("%s/%s b%d: cached charges %+v differ from the direct walk %+v",
						net.Name, l.Name, batch, got, want)
				}
			}
		}
	}
	if _, misses := layerCache.Counters(); misses == 0 {
		t.Fatal("no lookup went through the layer cache")
	}
}
