package mapper

// Differential tests of the closed form: Classes must partition Tiles
// exactly, as a multiset of the tile fields the cycle models charge.

import (
	"maps"
	"math/rand"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/mapper/mappertest"
	"supernpu/internal/workload"
)

// tileKind is a tile's charged fields: its Class without the count.
func tileKind(t Tile) Class {
	return Class{Rows: t.Rows, Filters: t.Filters, Cols: t.Cols, Regs: t.Regs,
		Channels: t.Channels, FirstRowTile: t.FirstRowTile}
}

// checkPartition fails the test unless the layer's classes, counts
// included, equal the multiset of its tiles.
func checkPartition(t *testing.T, l workload.Layer, height, width, registers int) {
	t.Helper()
	want := map[Class]int{}
	for _, tl := range Tiles(l, height, width, registers) {
		want[tileKind(tl)]++
	}
	got := map[Class]int{}
	for _, c := range Classes(l, height, width, registers) {
		if c.Count < 0 {
			t.Fatalf("%+v on %dx%dx%d: negative class count %+v", l, height, width, registers, c)
		}
		if c.Count > 0 {
			n := c.Count
			c.Count = 0
			got[c] += n
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%+v on %dx%dx%d: classes %v do not partition the tiles %v", l, height, width, registers, got, want)
	}
}

// TestClassesPartitionTiles checks the closed form on every SFQ design's
// array geometry against every layer of the six CNNs, pools included.
func TestClassesPartitionTiles(t *testing.T) {
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			for _, l := range net.Layers {
				checkPartition(t, l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers)
			}
		}
	}
}

// TestClassesPartitionRandomTiles checks the closed form on 20 000 seeded
// random layers and geometries, and that the draw reached each edge the
// closed form splits on.
func TestClassesPartitionRandomTiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	edges := map[string]int{}
	for range 20000 {
		c := mappertest.Draw(r)
		l := c.Layer
		checkPartition(t, l, c.Height, c.Width, c.Registers)
		edges[l.Kind.String()]++
		if l.Kind == workload.Conv || l.Kind == workload.FullyConnected {
			rsc, perTile := l.R*l.S*l.C, c.Width*c.Registers
			if rsc <= c.Height {
				edges["one row block"]++
			}
			if rsc > 2*c.Height {
				edges["middle row blocks"]++
			}
			if rsc%c.Height == 0 {
				edges["R·S·C a multiple of the height"]++
			}
			if l.M <= perTile {
				edges["one filter block"]++
			}
			if l.M%perTile == 0 {
				edges["M a multiple of width·registers"]++
			}
		}
	}
	t.Logf("edges reached: %v", edges)
	for _, e := range []string{"conv", "fc", "dwconv", "pool", "one row block", "middle row blocks",
		"R·S·C a multiple of the height", "one filter block", "M a multiple of width·registers"} {
		if edges[e] < 100 {
			t.Errorf("the random draw hit %q only %d times", e, edges[e])
		}
	}
}

// TestClassesAllocateNothing pins the closed form's cost: a fixed-size
// array, returned by value.
func TestClassesAllocateNothing(t *testing.T) {
	cfg := arch.SuperNPU()
	for _, l := range workload.MobileNet().Layers {
		allocs := testing.AllocsPerRun(20, func() {
			Classes(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers)
		})
		if allocs != 0 {
			t.Errorf("%s: Classes allocates %.1f times, want 0", l.Name, allocs)
		}
	}
}

// FuzzTileClasses checks the partition property on fuzzed shapes and
// geometries, bounded so Tiles stays small. Seed corpus in
// testdata/fuzz/FuzzTileClasses; mutate with
//
//	go test ./internal/mapper -run='^$' -fuzz=FuzzTileClasses -fuzztime=30s
func FuzzTileClasses(f *testing.F) {
	f.Add(uint8(0), uint16(14), uint16(14), uint16(256), uint8(3), uint8(3), uint16(512), uint8(1), uint8(1), uint16(128), uint16(64), uint8(2))
	f.Add(uint8(1), uint16(14), uint16(14), uint16(32), uint8(3), uint8(3), uint16(32), uint8(2), uint8(1), uint16(256), uint16(64), uint8(8))
	f.Add(uint8(2), uint16(1), uint16(1), uint16(4096), uint8(1), uint8(1), uint16(1000), uint8(1), uint8(0), uint16(256), uint16(256), uint8(1))
	f.Add(uint8(3), uint16(8), uint16(8), uint16(4), uint8(2), uint8(2), uint16(4), uint8(2), uint8(0), uint16(64), uint16(64), uint8(1))
	f.Fuzz(func(t *testing.T, kind uint8, h, w, c uint16, r, s uint8, m uint16, stride, pad uint8,
		height, width uint16, regs uint8) {
		cs := mappertest.Case{
			Layer: workload.Layer{Name: "fuzz", Kind: workload.Kind(kind % 4),
				H: 1 + int(h)%64, W: 1 + int(w)%64, C: 1 + int(c)%4096,
				R: 1 + int(r)%11, S: 1 + int(s)%11, M: 1 + int(m)%4096,
				Stride: 1 + int(stride)%4, Pad: int(pad) % 4},
			Height: 1 + int(height)%300, Width: 1 + int(width)%300, Registers: 1 + int(regs)%8,
		}
		if cs.TileCount() > mappertest.MaxTiles {
			t.Skip("too many tiles to walk")
		}
		checkPartition(t, cs.Layer, cs.Height, cs.Width, cs.Registers)
	})
}
