// Package mapper computes the weight mappings of a layer onto a
// weight-stationary systolic array: the tiling of the layer's (R·S·C)
// weight positions over the PE rows and of its M filters over the PE
// columns and register planes. One mapping policy serves every model:
// Tiles enumerates the mappings one by one for the functional
// cycle-stepped array, and Classes is its closed form, the few classes of
// identical mappings that the cycle models charge as count × charge.
package mapper

import "supernpu/internal/workload"

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
// height (rows), width (columns) and registers per PE. It builds a fresh
// slice on every call; the cycle models charge Classes instead.
//
// Registers engage only when a tile's filter count exceeds the array width:
// each engaged register plane trades one streaming pass for a column's
// worth of filters, so a tile that fits the columns runs single-register.
//
// Depthwise layers reduce within one channel only, so each channel maps
// separately onto R·S rows and a single column — the structural
// underutilisation the paper observes on MobileNet.
func Tiles(l workload.Layer, height, width, registers int) []Tile {
	if l.Kind == workload.Pool {
		return nil
	}
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

// Class is Count weight mappings that agree on every field a cycle model
// charges; they differ only in where they sit (RowOffset, ColBase,
// Channel).
type Class struct {
	Rows, Filters, Cols, Regs int
	Channels                  int
	FirstRowTile              bool
	Count                     int
}

// Classes is the closed form of Tiles: the layer's mappings grouped into
// classes of identical tiles, in O(1) and without allocating.
//
// The R·S·C rows split into nRow = ⌈R·S·C / height⌉ row blocks and the M
// filters into blocks of width × registers, so a tile is one of six kinds:
// the first, a middle (nRow−2 of them) or the last row block, times a
// full or the last, partial filter block. The first row block is the only
// first-row class; with one row block it is also the partial one and the
// middle and last classes are empty. A depthwise layer is one class of C
// identical tiles. Slot 2·row + filter holds each kind; an empty slot is
// the zero Class, which charges nothing, and a layer Tiles maps no tile
// (a pool, or an empty shape) has only empty slots.
func Classes(l workload.Layer, height, width, registers int) [6]Class {
	var cs [6]Class
	switch {
	case l.Kind == workload.Pool:
		return cs
	case l.Kind == workload.DepthwiseConv:
		if l.C > 0 {
			cs[0] = Class{Rows: min(l.R*l.S, height), Filters: 1, Cols: 1, Regs: 1,
				Channels: 1, FirstRowTile: true, Count: l.C}
		}
		return cs
	}
	rsc := l.R * l.S * l.C
	if rsc <= 0 || l.M <= 0 {
		return cs
	}
	nRow := (rsc + height - 1) / height
	perTile := width * registers
	type block struct{ size, count int }
	rowBlocks := [3]block{
		{min(rsc, height), 1},
		{height, max(nRow-2, 0)},
		{rsc - (nRow-1)*height, min(nRow-1, 1)},
	}
	filterBlocks := [2]block{
		{perTile, l.M / perTile},
		{l.M % perTile, min(l.M%perTile, 1)},
	}
	for i, r := range rowBlocks {
		for j, f := range filterBlocks {
			if r.count == 0 || f.count == 0 {
				continue
			}
			regs := (f.size + width - 1) / width
			cs[2*i+j] = Class{
				Rows: r.size, Filters: f.size,
				Cols: (f.size + regs - 1) / regs, Regs: regs,
				Channels:     (r.size + l.R*l.S - 1) / (l.R * l.S),
				FirstRowTile: i == 0,
				Count:        r.count * f.count,
			}
		}
	}
	return cs
}
