// Package mappertest draws seeded random layers and array geometries for
// the differential tests that hold the closed-form tile classes
// (mapper.Classes) and the cycle models' per-layer charges to the
// tile-by-tile walk over mapper.Tiles.
package mappertest

import (
	"math/rand"

	"supernpu/internal/workload"
)

// Case is one layer on one array geometry.
type Case struct {
	Layer                    workload.Layer
	Height, Width, Registers int
}

// MaxTiles bounds the tiles a drawn case maps, so walking them stays cheap.
const MaxTiles = 2048

// TileCount is the number of tiles mapper.Tiles maps for the case, derived
// from the mapping policy without enumerating them.
func (c Case) TileCount() int {
	l := c.Layer
	switch l.Kind {
	case workload.Pool:
		return 0
	case workload.DepthwiseConv:
		return l.C
	}
	rsc := l.R * l.S * l.C
	perTile := c.Width * c.Registers
	return (rsc + c.Height - 1) / c.Height * ((l.M + perTile - 1) / perTile)
}

// Draw returns a valid random case mapping at most MaxTiles tiles: a conv,
// FC, depthwise or pool layer with stride and padding, on an array of
// height and width 1–300 with 1–8 registers. One draw in four makes R·S·C
// a multiple of the height, and one in four makes M a multiple of
// width × registers, the two edges where a block stops being partial;
// small layers and wide arrays give single row and filter blocks often.
func Draw(r *rand.Rand) Case {
	for {
		c := Case{Height: 1 + r.Intn(300), Width: 1 + r.Intn(300), Registers: 1 + r.Intn(8)}
		l := workload.Layer{Name: "random", Kind: workload.Kind(r.Intn(4)),
			H: 1 + r.Intn(64), W: 1 + r.Intn(64), C: 1 + r.Intn(256),
			R: 1 + r.Intn(7), S: 1 + r.Intn(7), M: 1 + r.Intn(1024),
			Stride: 1 + r.Intn(4), Pad: r.Intn(4)}
		switch l.Kind {
		case workload.FullyConnected:
			l.H, l.W, l.R, l.S, l.Stride, l.Pad = 1, 1, 1, 1, 1, 0
			l.C = 1 + r.Intn(4096)
		case workload.DepthwiseConv, workload.Pool:
			l.M = l.C
		}
		if r.Intn(4) == 0 {
			c.Height = divisor(r, l.R*l.S*l.C, 300)
		}
		if r.Intn(4) == 0 {
			l.M = (1 + r.Intn(3)) * c.Width * c.Registers
		}
		c.Layer = l
		if l.Validate() == nil && c.TileCount() <= MaxTiles {
			return c
		}
	}
}

// divisor returns a random divisor of n that is at most limit.
func divisor(r *rand.Rand, n, limit int) int {
	var ds []int
	for d := 1; d <= limit && d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds[r.Intn(len(ds))]
}
