// Package srmem models the shift-register-based on-chip memory that SFQ
// logic favours over RAM (Section II-B3): serially connected DFF rows with a
// feedback loop. It provides
//
//   - the cycle-cost model of the performance simulator (recirculating a
//     chunk and moving data between buffers cost cycles proportional to the
//     shifted length — the root of the paper's first bottleneck), and
//   - the cell inventory, including the multiplexer/demultiplexer trees and
//     selection wiring that buffer division adds (Fig. 19/20).
package srmem

import (
	"fmt"

	"supernpu/internal/clocking"
	"supernpu/internal/sfq"
)

// Config describes one shift-register buffer macro.
type Config struct {
	// WidthBytes is the number of bytes presented per cycle — one byte
	// lane per served PE-array row or column.
	WidthBytes int
	// CapacityBytes is the macro's total storage.
	CapacityBytes int
	// Chunks is the division degree: the number of independently selected
	// shift-register chunks the capacity is split into (1 = monolithic,
	// the Baseline; SuperNPU divides its buffers into ≥64 chunks).
	Chunks int
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.WidthBytes <= 0 || c.CapacityBytes <= 0 || c.Chunks <= 0 {
		return fmt.Errorf("srmem: all Config fields must be positive, got %+v", c)
	}
	if c.CapacityBytes < c.WidthBytes*c.Chunks {
		return fmt.Errorf("srmem: capacity %d too small for %d chunks of width %d",
			c.CapacityBytes, c.Chunks, c.WidthBytes)
	}
	return nil
}

// Entries is the total number of width-wide entries the macro holds.
func (c Config) Entries() int { return c.CapacityBytes / c.WidthBytes }

// ChunkEntries is the length of one chunk in entries.
func (c Config) ChunkEntries() int { return c.Entries() / c.Chunks }

// RecirculateCycles is the cost of moving an entry from a chunk's tail back
// to its head so it can be consumed again: the whole chunk must rotate once.
// For a monolithic buffer this is the full buffer length — e.g. 32768 cycles
// for an 8 MB buffer with 256 B/cycle width — and it is paid whenever
// already-used data is needed for the next computation (Fig. 16 ②).
func (c Config) RecirculateCycles() int { return c.ChunkEntries() }

// InterBufferMoveCycles is the cost of moving a chunk of this buffer into
// a chunk of dst by shifting both: the data walks out of the source chunk
// and into the destination chunk, so the cost is the two chunk lengths
// whatever the byte count (Fig. 16 ①: ofmap → psum movement costs the sum
// of the two buffer lengths in the Baseline).
func (c Config) InterBufferMoveCycles(dst Config) int {
	return c.RecirculateCycles() + dst.RecirculateCycles()
}

// Frequency returns the macro's clock frequency: the serial DFF rows form a
// feedback loop (the recirculation path), so the buffer is counter-flow
// clocked (Fig. 7(b)).
func Frequency(lib *sfq.Library) float64 {
	dff := lib.Gate(sfq.DFF)
	pair := clocking.Pair{Src: dff, Dst: dff}
	return clocking.Frequency(pair.CCT(clocking.CounterFlow))
}

// bitCell returns the cells of one storage bit: the DFF itself, its clock
// splitter and two interconnect JTL segments.
func bitCell() sfq.Inventory {
	return sfq.Inventory{sfq.DFF: 1, sfq.Splitter: 1, sfq.JTL: 2}
}

// selectionWiringJTLPerBit is the transmission-line cost per chunk per bit
// lane of routing the selected chunk to/from the macro port: chunks are
// spread across the buffer floorplan, so every additional chunk pays a full
// crossing of the macro.
const selectionWiringJTLPerBit = 50

// Inventory returns the macro's cell multiset: storage bit-cells plus, when
// divided, the MUX/DEMUX selection trees and their fan-out wiring. The
// selection overhead grows with the division degree — the reason Fig. 20
// shows exponentially increasing area beyond division 64.
func (c Config) Inventory() sfq.Inventory {
	inv := sfq.Inventory{}
	bits := c.CapacityBytes * 8
	inv.Add(bitCell(), bits)

	if c.Chunks > 1 {
		laneBits := c.WidthBytes * 8
		// Binary DEMUX tree into the chunks and MUX tree out of them:
		// (Chunks−1) steering nodes per bit lane on each side.
		inv.AddGate(sfq.DEMUXCell, (c.Chunks-1)*laneBits)
		inv.AddGate(sfq.MUXCell, (c.Chunks-1)*laneBits)
		// Selection fan-out wiring spanning the macro.
		inv.AddGate(sfq.JTL, c.Chunks*laneBits*selectionWiringJTLPerBit)
	}
	return inv
}

// ChunkShiftEnergy is the dynamic energy of shifting one chunk by one
// position: every bit of the chunk moves. Division therefore reduces both
// access latency and access energy — unselected chunks are clock-gated.
func (c Config) ChunkShiftEnergy(lib *sfq.Library) float64 {
	bitsPerChunk := c.ChunkEntries() * c.WidthBytes * 8
	return float64(bitsPerChunk) * bitCell().AccessEnergy(lib)
}
