package jsim

import (
	"context"
	"math"
)

// The dense reference: the full O(steps·nodes) trajectory and its
// post-processing, kept only to pin the streaming observers and the
// reused Solver against an independent reading of the same transient.

// denseResult holds the transient solution of a chain simulation.
type denseResult struct {
	dt     float64     // time step (s)
	phases [][]float64 // phases[step][node]
	// biasEnergy is the cumulative energy delivered by all bias sources up
	// to each step: ∫ Σ I_bias·V dt.
	biasEnergy []float64
}

// denseRecorder materialises the full trajectory as an Observer.
type denseRecorder struct {
	bias   []float64
	energy float64
	res    denseResult
}

func (d *denseRecorder) Init(info RunInfo) {
	d.bias = info.Bias
	d.energy = 0
	d.res = denseResult{
		dt:         info.Dt,
		phases:     make([][]float64, 0, info.Steps),
		biasEnergy: make([]float64, 0, info.Steps),
	}
}

func (d *denseRecorder) Observe(step int, t float64, phi, v []float64) {
	// As in EnergyAccumulator, step s's bias energy arrives with the v of
	// sample s+1; adding it before recording stores the cumulative energy
	// up to this sample.
	for i, vi := range v {
		d.energy += d.bias[i] * phi0over2pi * vi * d.res.dt
	}
	d.res.phases = append(d.res.phases, append([]float64(nil), phi...))
	d.res.biasEnergy = append(d.res.biasEnergy, d.energy)
}

// runDense integrates the chain on a fresh Solver and returns the dense
// trajectory.
func runDense(c *Chain, T, dt float64) (*denseResult, error) {
	var rec denseRecorder
	var s Solver
	if err := s.RunChain(context.Background(), c, T, dt, &rec); err != nil {
		return nil, err
	}
	return &rec.res, nil
}

// pulseTimes returns the times at which SFQ pulses pass the given node: the
// instants the node phase crosses odd multiples of π (the midpoint of each
// 2π slip, where the voltage pulse peaks).
func (r *denseResult) pulseTimes(node int) []float64 {
	var times []float64
	next := math.Pi
	for s := 1; s < len(r.phases); s++ {
		for r.phases[s][node] >= next {
			// Linear interpolation of the crossing instant.
			p0, p1 := r.phases[s-1][node], r.phases[s][node]
			frac := 0.0
			//lint:allow(floateq) exact guard against a zero division, not a tolerance check
			if p1 != p0 {
				frac = (next - p0) / (p1 - p0)
			}
			times = append(times, (float64(s-1)+frac)*r.dt)
			next += 2 * math.Pi
		}
	}
	return times
}

// finalPhase returns the last phase of the node.
func (r *denseResult) finalPhase(node int) float64 {
	return r.phases[len(r.phases)-1][node]
}

// slips returns how many complete 2π phase slips the node underwent.
func (r *denseResult) slips(node int) int {
	return int(math.Floor((r.finalPhase(node) + math.Pi) / (2 * math.Pi)))
}

// totalBiasEnergy is the energy drawn from the bias network over the run.
func (r *denseResult) totalBiasEnergy() float64 {
	return r.biasEnergy[len(r.biasEnergy)-1]
}
