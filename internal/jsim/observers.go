// Streaming observers: the consumers a Solver feeds in-stream. Each one
// computes a quantity of the transient — pulse times, bias energy, final
// phases and slips — while holding only O(nodes) state, bit for bit equal
// to post-processing the dense trajectory (the test-only reference in
// dense_test.go).
package jsim

import "math"

// PulseDetector streams odd-π crossing detection: the instants each node's
// phase crosses π, 3π, 5π, … (the midpoint of each 2π slip, where the
// voltage pulse peaks), linearly interpolated inside the crossing step.
type PulseDetector struct {
	dt    float64
	prev  []float64   // phase vector at the previous sample
	next  []float64   // next crossing threshold per node
	times [][]float64 // recorded crossing times per node
}

// Init implements Observer.
func (p *PulseDetector) Init(info RunInfo) {
	n := info.Nodes
	p.dt = info.Dt
	p.prev = growF(p.prev, n)
	p.next = growF(p.next, n)
	if cap(p.times) >= n {
		p.times = p.times[:n]
	} else {
		times := make([][]float64, n)
		copy(times, p.times)
		p.times = times
	}
	for i := 0; i < n; i++ {
		p.next[i] = math.Pi
		p.times[i] = p.times[i][:0]
	}
}

// Observe implements Observer.
func (p *PulseDetector) Observe(step int, t float64, phi, v []float64) {
	if step == 0 {
		copy(p.prev, phi)
		return
	}
	for i, p1 := range phi {
		for p1 >= p.next[i] {
			p0 := p.prev[i]
			frac := 0.0
			//lint:allow(floateq) exact guard against a zero division, not a tolerance check
			if p1 != p0 {
				frac = (p.next[i] - p0) / (p1 - p0)
			}
			p.times[i] = append(p.times[i], (float64(step-1)+frac)*p.dt)
			p.next[i] += 2 * math.Pi
			mPulses.Inc()
		}
		p.prev[i] = p1
	}
}

// Times returns the crossing times recorded for the node, in order. The
// slice aliases detector state: it is valid until the next Init.
func (p *PulseDetector) Times(node int) []float64 { return p.times[node] }

// EnergyAccumulator streams the cumulative bias energy ∫ Σ I_bias·V dt in
// O(1) state.
type EnergyAccumulator struct {
	bias   []float64
	dt     float64
	energy float64
}

// Init implements Observer.
func (e *EnergyAccumulator) Init(info RunInfo) {
	e.bias = info.Bias
	e.dt = info.Dt
	e.energy = 0
}

// Observe implements Observer. Step s's bias energy uses its post-update
// velocities, which arrive as the v of sample s+1, so each sample adds the
// previous step's contribution (sample 0 adds exact zeros: v starts at 0).
func (e *EnergyAccumulator) Observe(step int, t float64, phi, v []float64) {
	for i, vi := range v {
		e.energy += e.bias[i] * phi0over2pi * vi * e.dt
	}
}

// Total is the energy drawn from the bias network over the run.
func (e *EnergyAccumulator) Total() float64 { return e.energy }

// FinalState captures the last sample of the run. A run that a Finisher
// ends early never shows it the last sample, and it then holds zeros.
type FinalState struct {
	lastStep int
	phi      []float64
	v        []float64
}

// Init implements Observer.
func (f *FinalState) Init(info RunInfo) {
	f.lastStep = info.Steps - 1
	f.phi = growF(f.phi, info.Nodes)
	f.v = growF(f.v, info.Nodes)
	for i := 0; i < info.Nodes; i++ {
		f.phi[i] = 0
		f.v[i] = 0
	}
}

// Observe implements Observer.
func (f *FinalState) Observe(step int, t float64, phi, v []float64) {
	if step == f.lastStep {
		copy(f.phi, phi)
		copy(f.v, v)
	}
}

// Slips returns how many complete 2π phase slips the node underwent.
func (f *FinalState) Slips(node int) int { return slips(f.phi[node]) }

// slips counts the complete 2π phase slips of a junction at phase phi,
// which starts in (−π, π).
func slips(phi float64) int {
	return int(math.Floor((phi + math.Pi) / (2 * math.Pi)))
}
