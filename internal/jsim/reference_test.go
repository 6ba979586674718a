package jsim

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/guard"
	"supernpu/internal/sfq"
)

// The textbook RK4 reference: the solver's step as it was written before
// the fused step replaced it, kept only to pin the fused step bit for bit
// (TestFusedStepBitIdenticalToReference). derivChain evaluates the
// right-hand side into k buffers and integrate combines them in separate
// per-node loops. The bodies are the production code they replaced, minus
// the solver counters, so a reference run leaves the metrics alone.

// refSolver carries the reference's k and stage buffers beside the
// per-node constants and source index that Solver's prepNodes and
// indexSources build.
type refSolver struct {
	Solver
	k1p, k1v []float64
	k2p, k2v []float64
	k3p, k3v []float64
	k4p, k4v []float64
	tp, tv   []float64
}

// run integrates the chain like RunChain, on the textbook step.
func (s *refSolver) run(c *Chain, T, dt float64, obs ...Observer) error {
	n := len(c.Nodes)
	steps := stepCount(T, dt)
	s.prepNodes(c.Nodes)
	s.indexSources(c.Sources, n)
	for _, b := range []*[]float64{&s.k1p, &s.k1v, &s.k2p, &s.k2v, &s.k3p, &s.k3v, &s.k4p, &s.k4v, &s.tp, &s.tv} {
		*b = make([]float64, n)
	}
	info := RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: s.bias}
	for _, o := range obs {
		o.Init(info)
	}
	return s.integrate(steps, n, dt, obs)
}

// derivChain evaluates the chain's sine-Gordon right-hand side.
func (s *refSolver) derivChain(t float64, phi, v, dphi, dv []float64) {
	n := len(phi)
	for i := 0; i < n; i++ {
		cur := s.bias[i]
		for _, src := range s.srcs[s.srcPtr[i]:s.srcPtr[i+1]] {
			cur += src.current(t)
		}
		if i > 0 {
			cur += phi0over2pi * (phi[i-1] - phi[i]) / s.lNext[i-1]
		}
		if i < n-1 {
			cur += phi0over2pi * (phi[i+1] - phi[i]) / s.lNext[i]
		}
		cur -= s.ic[i] * math.Sin(phi[i])
		cur -= phi0over2pi * v[i] / s.res[i]
		dphi[i] = v[i]
		dv[i] = cur / s.cphi[i]
	}
}

// integrate runs the textbook RK4 loop, streaming each pre-update state to
// the observers.
func (s *refSolver) integrate(steps, n int, dt float64, obs []Observer) error {
	for step := 0; step < steps; step++ {
		t := float64(step) * dt
		for _, o := range obs {
			o.Observe(step, t, s.phi, s.v)
		}

		s.derivChain(t, s.phi, s.v, s.k1p, s.k1v)
		for i := 0; i < n; i++ {
			s.tp[i] = s.phi[i] + 0.5*dt*s.k1p[i]
			s.tv[i] = s.v[i] + 0.5*dt*s.k1v[i]
		}
		s.derivChain(t+0.5*dt, s.tp, s.tv, s.k2p, s.k2v)
		for i := 0; i < n; i++ {
			s.tp[i] = s.phi[i] + 0.5*dt*s.k2p[i]
			s.tv[i] = s.v[i] + 0.5*dt*s.k2v[i]
		}
		s.derivChain(t+0.5*dt, s.tp, s.tv, s.k3p, s.k3v)
		for i := 0; i < n; i++ {
			s.tp[i] = s.phi[i] + dt*s.k3p[i]
			s.tv[i] = s.v[i] + dt*s.k3v[i]
		}
		s.derivChain(t+dt, s.tp, s.tv, s.k4p, s.k4v)

		for i := 0; i < n; i++ {
			s.phi[i] += dt / 6 * (s.k1p[i] + 2*s.k2p[i] + 2*s.k3p[i] + s.k4p[i])
			s.v[i] += dt / 6 * (s.k1v[i] + 2*s.k2v[i] + 2*s.k3v[i] + s.k4v[i])
			if math.IsNaN(s.phi[i]) || math.IsInf(s.phi[i], 0) {
				return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, guard.ErrNonFinite)
			}
			if v := s.v[i]; v > divergedPhiDot || v < -divergedPhiDot {
				return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, guard.ErrDiverged)
			}
		}
	}
	return nil
}

// sampleRecorder keeps every φ and v sample of a run, flattened step-major.
type sampleRecorder struct {
	phi, v []float64
}

func (r *sampleRecorder) Init(info RunInfo) {
	r.phi = make([]float64, 0, info.Steps*info.Nodes)
	r.v = make([]float64, 0, info.Steps*info.Nodes)
}

func (r *sampleRecorder) Observe(step int, t float64, phi, v []float64) {
	r.phi = append(r.phi, phi...)
	r.v = append(r.v, v...)
}

// record runs the chain on the production solver s and returns its samples
// and error.
func record(s *Solver, c *Chain, T, dt float64) (*sampleRecorder, error) {
	var rec sampleRecorder
	err := s.RunChain(context.Background(), c, T, dt, &rec)
	return &rec, err
}

// firstBitDiff returns the first sample index at which a and b differ in
// their bits, or -1 when they are the same length and bitwise equal.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}
