// Package mapper computes the weight mappings of a layer onto a
// weight-stationary systolic array: the tiling of the layer's (R·S·C)
// weight positions over the PE rows and of its M filters over the PE
// columns and register planes. The cycle-based performance simulator and
// the functional cycle-stepped array consume exactly the same tiles, so the
// two models are tied to one mapping policy.
package mapper

import (
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// tileCache memoises Tiles by (layer shape, array geometry): the same tile
// plans are re-derived at every sweep point and batch resolution of
// Figs. 20–22. Cached slices are shared between callers and must be
// treated as read-only.
var tileCache = simcache.New[[]Tile]()

func init() { simcache.Register("mapper.tiles", tileCache) }

// Tile is one weight mapping.
type Tile struct {
	// RowOffset is the flat (channel, filter-row, filter-column) position
	// of the tile's first PE row; Rows the number of rows occupied.
	RowOffset, Rows int
	// ColBase is the first filter covered; Filters the effective filter
	// count; Cols the PE columns occupied; Regs the register planes
	// engaged. Filters ≤ Cols × Regs.
	ColBase, Filters, Cols, Regs int
	// FirstRowTile marks the tile that starts a fresh set of partial sums
	// for its filters (no psum re-injection needed).
	FirstRowTile bool
	// Channels is the number of input channels the tile's rows touch.
	Channels int
	// Channel is the single input channel of a depthwise tile, else -1.
	Channel int
}

// Tiles enumerates the layer's weight mappings on an array of the given
// height (rows), width (columns) and registers per PE.
//
// Registers engage only when a tile's filter count exceeds the array width:
// each engaged register plane trades one streaming pass for a column's
// worth of filters, so a tile that fits the columns runs single-register.
//
// Depthwise layers reduce within one channel only, so each channel maps
// separately onto R·S rows and a single column — the structural
// underutilisation the paper observes on MobileNet.
//
// Results are memoised by (layer shape, height, width, registers); the
// returned slice is shared between callers, who must not modify it.
func Tiles(l workload.Layer, height, width, registers int) []Tile {
	if l.Kind == workload.Pool {
		return nil
	}
	var kb [128]byte
	tiles, _ := tileCache.GetOrCompute(simcache.AppendTilesKey(kb[:0], l.Shape(), height, width, registers),
		func() ([]Tile, error) { return enumerate(l, height, width, registers), nil })
	return tiles
}

// enumerate is the uncached tile-plan derivation.
func enumerate(l workload.Layer, height, width, registers int) []Tile {
	if l.Kind == workload.DepthwiseConv {
		tiles := make([]Tile, 0, l.C)
		rows := l.R * l.S
		if rows > height {
			rows = height
		}
		for c := 0; c < l.C; c++ {
			tiles = append(tiles, Tile{
				RowOffset: 0, Rows: rows,
				ColBase: c, Filters: 1, Cols: 1, Regs: 1,
				FirstRowTile: true, Channels: 1, Channel: c,
			})
		}
		return tiles
	}

	rsc := l.R * l.S * l.C
	filtersPerTile := width * registers
	var tiles []Tile
	for rowOff := 0; rowOff < rsc; rowOff += height {
		rows := rsc - rowOff
		if rows > height {
			rows = height
		}
		for m := 0; m < l.M; m += filtersPerTile {
			filters := l.M - m
			if filters > filtersPerTile {
				filters = filtersPerTile
			}
			regs := (filters + width - 1) / width
			cols := (filters + regs - 1) / regs
			tiles = append(tiles, Tile{
				RowOffset: rowOff, Rows: rows,
				ColBase: m, Filters: filters, Cols: cols, Regs: regs,
				FirstRowTile: rowOff == 0,
				Channels:     (rows + l.R*l.S - 1) / (l.R * l.S),
			})
		}
	}
	for i := range tiles {
		tiles[i].Channel = -1
	}
	return tiles
}

// MACs returns the useful multiply-accumulates of the tile for one output
// map of ef positions and the given batch.
func (t Tile) MACs(batch int, ef int64) int64 {
	return int64(batch) * ef * int64(t.Rows) * int64(t.Filters)
}
