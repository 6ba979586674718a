// Package memsys models the off-chip memory system. The paper treats DRAM
// as a flat 300 GB/s pipe (the TPUv2 HBM figure); this package refines that
// with transfer granularity — per-request activation overhead and channel
// burst granules — and shows under which conditions the flat-bandwidth
// abstraction the simulators use is accurate (NPU-scale transfers are
// megabytes, far above the knee).
package memsys

import (
	"errors"
	"math"
)

// Model is an HBM-like memory system.
type Model struct {
	// PeakBandwidth is the aggregate pin bandwidth in bytes/s.
	PeakBandwidth float64
	// Channels is the number of independent channels.
	Channels int
	// BurstBytes is the minimum efficient granule per channel access;
	// smaller transfers waste the remainder of the burst.
	BurstBytes int
	// RequestOverhead is the fixed per-request latency (row activation,
	// command overhead) in seconds.
	RequestOverhead float64
}

// HBM2 returns a 300 GB/s, 8-channel HBM2 stack with 256 B bursts and
// ~60 ns of request overhead — the paper's bandwidth point.
func HBM2() Model {
	return Model{
		PeakBandwidth:   300e9,
		Channels:        8,
		BurstBytes:      256,
		RequestOverhead: 60e-9,
	}
}

// Validate reports a configuration error, if any.
func (m Model) Validate() error {
	if m.PeakBandwidth <= 0 || m.Channels <= 0 || m.BurstBytes <= 0 || m.RequestOverhead < 0 {
		return errors.New("memsys: all model parameters must be positive")
	}
	return nil
}

// TransferTime returns the time to move n bytes in one request stream:
// the fixed request overhead plus the burst-rounded payload at peak rate.
func (m Model) TransferTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	granule := int64(m.Channels * m.BurstBytes)
	rounded := (n + granule - 1) / granule * granule
	return m.RequestOverhead + float64(rounded)/m.PeakBandwidth
}

// EffectiveBandwidth returns the achieved bytes/s for an n-byte transfer.
func (m Model) EffectiveBandwidth(n int64) float64 {
	t := m.TransferTime(n)
	if t == 0 {
		return 0
	}
	return float64(n) / t
}

// Efficiency is EffectiveBandwidth over PeakBandwidth, in (0, 1].
func (m Model) Efficiency(n int64) float64 {
	return m.EffectiveBandwidth(n) / m.PeakBandwidth
}

// KneeBytes returns the transfer size at which efficiency reaches 50%: the
// request overhead equals the streaming time.
func (m Model) KneeBytes() int64 {
	return int64(math.Ceil(m.RequestOverhead * m.PeakBandwidth))
}
