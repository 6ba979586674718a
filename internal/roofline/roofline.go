// Package roofline implements the roofline analysis of Fig. 17: for a given
// computational intensity — the paper defines it as the number of MAC
// operations executed per weight byte mapped on the PE array, which folds in
// the batch-size-driven data reuse — the attainable performance is the
// lesser of the compute peak and intensity × memory bandwidth.
package roofline

import "supernpu/internal/workload"

// Model is one machine's roofline.
type Model struct {
	PeakMACs  float64 // MAC/s
	Bandwidth float64 // bytes/s
}

// Attainable returns the roofline performance (MAC/s) at the intensity
// (MAC/byte).
func (m Model) Attainable(intensity float64) float64 {
	bound := intensity * m.Bandwidth
	if bound < m.PeakMACs {
		return bound
	}
	return m.PeakMACs
}

// Intensity is the paper's computational intensity of a workload at a batch
// size: every weight byte mapped on the PE is reused across the batch, so
// intensity grows linearly with the batch.
func Intensity(net workload.Network, batch int) float64 {
	wb := net.TotalWeightBytes()
	if wb == 0 {
		return 0
	}
	return float64(int64(batch)*net.TotalMACs()) / float64(wb)
}

// Utilization is roofline performance over peak at the given intensity —
// the "maximum PE utilization" of Fig. 17.
func (m Model) Utilization(intensity float64) float64 {
	if m.PeakMACs == 0 {
		return 0
	}
	return m.Attainable(intensity) / m.PeakMACs
}
