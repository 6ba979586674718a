// Package arch defines the SFQ-based NPU architecture configuration shared
// by the estimator and the performance simulator, together with the four
// design points of the paper's evaluation (Table I): the Baseline, the
// buffer-optimised design, the resource-balanced design, and SuperNPU.
package arch

import (
	"fmt"

	"supernpu/internal/pe"
	"supernpu/internal/sfq"
	"supernpu/internal/srmem"
)

// MB is two-to-the-twenty bytes, the unit of Table I capacities.
const MB = 1 << 20

// KB is two-to-the-ten bytes.
const KB = 1 << 10

// Config describes one SFQ-based NPU design point.
type Config struct {
	Name string

	// ArrayHeight is the number of PE rows (weight positions per mapping);
	// ArrayWidth the number of PE columns (filters per mapping).
	ArrayHeight, ArrayWidth int

	// Registers is the number of weight registers per PE (Section V-B3).
	Registers int

	// IfmapBufBytes and IfmapChunks size and divide the ifmap buffer.
	IfmapBufBytes, IfmapChunks int

	// OutputBufBytes and OutputChunks size and divide the output buffer.
	// When IntegratedOutput is true this one macro serves as both psum and
	// ofmap storage via chunk selection (Fig. 19 ①); otherwise it is the
	// ofmap buffer and PsumBufBytes a separate psum buffer (Baseline).
	OutputBufBytes, OutputChunks int
	IntegratedOutput             bool
	PsumBufBytes                 int

	// WeightBufBytes sizes the weight buffer.
	WeightBufBytes int

	// Tech selects RSFQ or ERSFQ biasing.
	Tech sfq.Technology

	// MemoryBandwidth is the off-chip DRAM bandwidth in bytes/s (the
	// paper uses 300 GB/s, the TPUv2 HBM figure).
	MemoryBandwidth float64
}

// DefaultBandwidth is the paper's 300 GB/s HBM assumption.
const DefaultBandwidth = 300e9

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.ArrayHeight <= 0 || c.ArrayWidth <= 0 || c.Registers <= 0 {
		return fmt.Errorf("arch: %s: array %dx%d with %d registers is invalid",
			c.Name, c.ArrayHeight, c.ArrayWidth, c.Registers)
	}
	if c.MemoryBandwidth <= 0 {
		return fmt.Errorf("arch: %s: memory bandwidth must be positive", c.Name)
	}
	if c.Tech != sfq.RSFQ && c.Tech != sfq.ERSFQ {
		return fmt.Errorf("arch: %s: technology %v is neither RSFQ nor ERSFQ", c.Name, c.Tech)
	}
	if !c.IntegratedOutput && c.PsumBufBytes <= 0 {
		return fmt.Errorf("arch: %s: non-integrated design needs a psum buffer", c.Name)
	}
	if c.IntegratedOutput && c.PsumBufBytes != 0 {
		return fmt.Errorf("arch: %s: integrated design must not declare a psum buffer", c.Name)
	}
	for _, b := range []srmem.Config{c.IfmapBuf(), c.OutputBuf(), c.WeightBuf()} {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("arch: %s: %w", c.Name, err)
		}
	}
	return nil
}

// PECfg returns the PE configuration of this design.
func (c Config) PECfg() pe.Config { return pe.Default8Bit(c.Registers) }

// IfmapBuf returns the ifmap buffer geometry: one byte lane per PE row.
func (c Config) IfmapBuf() srmem.Config {
	return srmem.Config{
		WidthBytes:    c.ArrayHeight,
		CapacityBytes: c.IfmapBufBytes,
		Chunks:        c.IfmapChunks,
	}
}

// OutputBuf returns the output (ofmap, or integrated ofmap+psum) buffer
// geometry: one byte lane per PE column.
func (c Config) OutputBuf() srmem.Config {
	return srmem.Config{
		WidthBytes:    c.ArrayWidth,
		CapacityBytes: c.OutputBufBytes,
		Chunks:        c.OutputChunks,
	}
}

// PsumBuf returns the separate psum buffer geometry of non-integrated
// designs; callers must check IntegratedOutput first.
func (c Config) PsumBuf() srmem.Config {
	return srmem.Config{
		WidthBytes:    c.ArrayWidth,
		CapacityBytes: c.PsumBufBytes,
		Chunks:        1,
	}
}

// WeightBuf returns the weight buffer geometry.
func (c Config) WeightBuf() srmem.Config {
	return srmem.Config{
		WidthBytes:    c.ArrayWidth,
		CapacityBytes: c.WeightBufBytes,
		Chunks:        1,
	}
}

// ActivationCapacity is the total on-chip activation storage available for
// batching: ifmap plus output (plus psum) buffers.
func (c Config) ActivationCapacity() int64 {
	return int64(c.IfmapBufBytes) + int64(c.OutputBufBytes) + int64(c.PsumBufBytes)
}

// PEs returns the PE count.
func (c Config) PEs() int { return c.ArrayHeight * c.ArrayWidth }

// Baseline returns the naive SFQ-based NPU of Section V-A: the TPU-like
// organisation (256×256 weight-stationary array) with monolithic
// shift-register buffers (Table I column "Baseline").
func Baseline() Config {
	return Config{
		Name:        "Baseline",
		ArrayHeight: 256, ArrayWidth: 256,
		Registers:     1,
		IfmapBufBytes: 8 * MB, IfmapChunks: 1,
		OutputBufBytes: 8 * MB, OutputChunks: 1,
		PsumBufBytes:    8 * MB,
		WeightBufBytes:  64 * KB,
		Tech:            sfq.RSFQ,
		MemoryBandwidth: DefaultBandwidth,
	}
}

// BufferOpt returns the Baseline with the optimised on-chip buffer
// architecture of Section V-B1: psum and ofmap buffers merged into one
// integrated output buffer and both buffers divided into 64 chunks
// (Table I column "Buffer opt.").
func BufferOpt() Config {
	c := Baseline()
	c.Name = "Buffer opt."
	c.IfmapBufBytes, c.IfmapChunks = 12*MB, 64
	c.OutputBufBytes, c.OutputChunks = 12*MB, 64
	c.IntegratedOutput = true
	c.PsumBufBytes = 0
	return c
}

// ResourceOpt returns the resource-balanced design of Section V-B2: the PE
// array narrowed to width 64 and the freed area spent on doubled buffers
// (Table I column "Resource opt.").
func ResourceOpt() Config {
	c := BufferOpt()
	c.Name = "Resource opt."
	c.ArrayWidth = 64
	c.IfmapBufBytes, c.IfmapChunks = 24*MB, 64
	c.OutputBufBytes, c.OutputChunks = 24*MB, 256
	c.WeightBufBytes = 16 * KB
	return c
}

// SuperNPU returns the final design of Section V-B3: ResourceOpt plus
// eight weight registers per PE for multi-kernel execution (Table I column
// "SuperNPU", Fig. 19).
func SuperNPU() Config {
	c := ResourceOpt()
	c.Name = "SuperNPU"
	c.Registers = 8
	c.WeightBufBytes = 128 * KB
	return c
}

// Designs returns the four SFQ design points in optimisation order.
func Designs() []Config {
	return []Config{Baseline(), BufferOpt(), ResourceOpt(), SuperNPU()}
}
