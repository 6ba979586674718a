package mapper

// Tile-plan memoization tests: Tiles is cached by (shape, array geometry),
// shared across calls and display names, and identical to the uncached
// enumeration.

import (
	"reflect"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

func TestTilesMemoisedAndNameIndependent(t *testing.T) {
	l := workload.Layer{Name: "conv", Kind: workload.Conv,
		H: 14, W: 14, C: 256, R: 3, S: 3, M: 512, Stride: 1, Pad: 1}

	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)

	a := Tiles(l, 128, 64, 2)
	b := Tiles(l, 128, 64, 2)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("second Tiles call did not return the cached plan")
	}

	// Same shape under a different display name shares the entry.
	renamed := l
	renamed.Name = "other"
	c := Tiles(renamed, 128, 64, 2)
	if &a[0] != &c[0] {
		t.Error("renamed layer of identical shape did not share the cached plan")
	}

	// Different geometry keys separately.
	d := Tiles(l, 128, 64, 4)
	if reflect.DeepEqual(a, d) {
		t.Error("register-count change did not alter the tile plan key/result")
	}
}

// TestTilesMatchEnumeration checks the tile cache against the enumeration
// it memoises, over every SFQ design's array geometry and every layer of
// every network.
func TestTilesMatchEnumeration(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			for _, l := range net.ComputeLayers() {
				got := Tiles(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers)
				want := enumerate(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/%s: cached plan differs from the enumeration", cfg.Name, net.Name, l.Name)
				}
			}
		}
	}
}

func TestTilesPoolBypassesCache(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	p := workload.Layer{Name: "pool", Kind: workload.Pool, H: 14, W: 14, C: 8, R: 2, S: 2, M: 8, Stride: 2}
	if got := Tiles(p, 64, 64, 2); got != nil {
		t.Errorf("pool layer produced tiles: %+v", got)
	}
	if n := tileCache.Len(); n != 0 {
		t.Errorf("pool lookup populated the tile cache with %d entries", n)
	}
}
