package npusim

// Tests for the whole-simulation cache key: inputs that differ only in
// where their names put separator bytes never share an entry, and a warm
// hit, like MaxBatch, allocates nothing.

import (
	"context"
	"fmt"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// TestSeparatorNamesDoNotShareAnEntry replays two different networks whose
// text keys (name and fields joined by 0x1f) were equal: the second one's
// only layer is the first one's second layer, under a network name that
// spells out the first layer's fields.
func TestSeparatorNamesDoNotShareAnEntry(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	cfg := arch.SuperNPU()
	x := workload.Layer{Name: "x", Kind: workload.Conv, H: 8, W: 8, C: 4, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	y := workload.Layer{Name: "y", Kind: workload.Conv, H: 8, W: 8, C: 8, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	a := workload.Network{Name: "N", Layers: []workload.Layer{x, y}}
	b := workload.Network{Name: "N\x1fx\x1f0\x1f8\x1f8\x1f4\x1f3\x1f3\x1f8\x1f1\x1f1", Layers: []workload.Layer{y}}
	ra, err := Simulate(ctx, cfg, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(ctx, cfg, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("the second network was served the first network's report")
	}
	if rb.MACs != 36864 || rb.TotalCycles != 2850 || rb.Network != b.Name {
		t.Fatalf("second network: %d MACs, %d cycles, network %q; want 36864, 2850 and its own name",
			rb.MACs, rb.TotalCycles, rb.Network)
	}
	if _, misses := cache.Counters(); misses != 2 {
		t.Fatalf("npusim misses = %d, want one per network", misses)
	}
}

// hitLookup is one warm whole-simulation lookup of the hit test.
type hitLookup struct {
	name string
	sim  func(context.Context) (*Report, error)
}

// sfqHits lists every lookup the hit test replays: each SFQ design × the
// six CNNs × batch 1 and the batch-0 MaxBatch form, plus one faulted run.
func sfqHits() []hitLookup {
	var out []hitLookup
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			for _, batch := range []int{1, 0} {
				out = append(out, hitLookup{fmt.Sprintf("%s/%s/b%d", cfg.Name, net.Name, batch),
					func(ctx context.Context) (*Report, error) { return Simulate(ctx, cfg, net, batch) }})
			}
		}
	}
	fm := &faultinject.Model{Seed: 3, PulseDrop: 1e-9, BitFlip: 1e-12}
	cfg, net := arch.SuperNPU(), workload.ResNet50()
	return append(out, hitLookup{"SuperNPU/ResNet50/b1 faulted",
		func(ctx context.Context) (*Report, error) { return SimulateFaulted(ctx, cfg, net, 1, fm) }})
}

func TestWarmHitsAllocateNothing(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	for _, h := range sfqHits() {
		want, err := h.sim(ctx)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if got, err := h.sim(ctx); got != want || err != nil {
				t.Fatalf("%s: the hit returned (%p, %v), want the cached %p", h.name, got, err, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm hit allocates %.1f times, want 0", h.name, allocs)
		}
	}
}

func TestMaxBatchAllocatesNothing(t *testing.T) {
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			allocs := testing.AllocsPerRun(20, func() { MaxBatch(cfg, net) })
			if allocs != 0 {
				t.Errorf("MaxBatch(%s, %s) allocates %.1f times, want 0", cfg.Name, net.Name, allocs)
			}
		}
	}
}
