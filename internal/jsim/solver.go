// The streaming transient solver: a reusable Solver integrates a Chain with
// classical RK4 and hands every step to a set of Observers, allocating
// O(nodes) scratch in total instead of materialising the O(steps·nodes)
// trajectory. The observers reproduce the dense post-processing of that
// trajectory bit for bit (TestStreamingObserversBitIdenticalToDense), so
// every golden exhibit derived from these transients is pinned by them.
package jsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"supernpu/internal/guard"
	"supernpu/internal/sfq"
)

// RunInfo describes one transient to the observers attached to it.
type RunInfo struct {
	Nodes int     // node count of the netlist
	Steps int     // RK4 sample count, including the t = 0 state
	Dt    float64 // time step (s)
	// Bias is the per-node DC bias current (A). It aliases solver scratch:
	// read it during the run, do not retain or mutate it.
	Bias []float64
}

// Observer consumes solver state in-stream. Init is called once before the
// first step; Observe is called once per RK4 sample with the state *before*
// that step's update (step 0 is the initial condition). The phi and v
// slices alias solver scratch and are only valid inside the call. If the
// run returns an error, observer state is undefined and must not be read.
type Observer interface {
	Init(info RunInfo)
	Observe(step int, t float64, phi, v []float64)
}

// stepCount returns the RK4 sample count covering [0, T] at spacing dt:
// ⌊T/dt⌋+1, with a guard against the quotient landing a few ulps below an
// integer. T = 160 ps at dt = 0.02 ps divides exactly in the reals but not
// in float64 (T/dt ≈ 7999.99999…), and plain truncation silently dropped
// the final sample of such runs.
func stepCount(T, dt float64) int {
	r := T / dt
	k := math.Floor(r)
	if r-k > 1-1e-9*(k+1) {
		k++
	}
	return int(k) + 1
}

// Solver integrates junction chains with reusable scratch: every buffer is
// grown on demand and kept across runs, so repeated transients over chains
// of the same (or smaller) size allocate nothing. A Solver is not safe for
// concurrent use; give each worker its own (see RunBatch and
// parallel.ForEachLocalContext).
type Solver struct {
	// Struct-of-arrays per-node constants, hoisted once per run.
	bias  []float64 // DC bias current
	ic    []float64 // junction critical current
	res   []float64 // shunt resistance
	cphi  []float64 // C·Φ0/2π, the φ̈ denominator
	lNext []float64 // chain inductance to the next node

	// Per-node source index: srcs[srcPtr[i]:srcPtr[i+1]] are the pulse
	// sources driving node i, in their original Sources order.
	srcPtr []int
	srcs   []PulseSource
	cnt    []int // counting-sort scratch

	// State and RK4 stage scratch.
	phi, v   []float64
	k1p, k1v []float64
	k2p, k2v []float64
	k3p, k3v []float64
	k4p, k4v []float64
	tp, tv   []float64

	// watch carries the run context so the RK4 loop can poll for
	// cancellation every pollSteps steps without allocating. Arming
	// against an uncancellable context is free, which keeps the
	// zero-allocation steady state intact on that path.
	watch guard.Watch
}

// NewSolver returns an empty Solver; buffers are sized on first use.
func NewSolver() *Solver { return &Solver{} }

// pollSteps is the cancellation poll interval of the RK4 loop: every
// pollSteps steps the solver polls its watch, so a canceled transient
// returns within pollSteps steps — microseconds of work — without the
// loop ever allocating. Must be a power of two; the loop tests
// step&(pollSteps-1).
const pollSteps = 256

// divergedVoltage is the per-node voltage bound beyond which a transient
// is declared diverged: SFQ pulse amplitudes sit in the millivolt range,
// so a solver state reaching a full volt is numerically blown up even
// while still technically finite. The solver state carries φ̇ in rad/s
// (V = Φ0/2π·φ̇), so the comparison happens against divergedPhiDot, the
// same bound in state units. The check is a read-only comparison and
// cannot perturb the trajectory of a healthy run. divergedFmt formats the
// failure, with a trailing %w for the guard sentinel.
const (
	divergedVoltage = 1.0
	divergedPhiDot  = divergedVoltage / phi0over2pi
	divergedFmt     = "jsim: solution diverged at t=%.3gps node %d: %w"
)

// growF resizes a float scratch slice to n, reusing capacity when it can.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growI resizes an int scratch slice to n, reusing capacity when it can.
func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// prepNodes hoists the per-node constants of nodes into the solver's
// struct-of-arrays scratch and sets the DC-equilibrium initial state
// φ = arcsin(I_bias/Ic), v = 0.
func (s *Solver) prepNodes(nodes []Node) {
	n := len(nodes)
	s.bias = growF(s.bias, n)
	s.ic = growF(s.ic, n)
	s.res = growF(s.res, n)
	s.cphi = growF(s.cphi, n)
	s.lNext = growF(s.lNext, n)
	s.phi = growF(s.phi, n)
	s.v = growF(s.v, n)
	s.k1p, s.k1v = growF(s.k1p, n), growF(s.k1v, n)
	s.k2p, s.k2v = growF(s.k2p, n), growF(s.k2v, n)
	s.k3p, s.k3v = growF(s.k3p, n), growF(s.k3v, n)
	s.k4p, s.k4v = growF(s.k4p, n), growF(s.k4v, n)
	s.tp, s.tv = growF(s.tp, n), growF(s.tv, n)
	for i := range nodes {
		nd := &nodes[i]
		s.bias[i] = nd.Bias
		s.ic[i] = nd.JJ.Ic
		s.res[i] = nd.JJ.R
		s.cphi[i] = nd.JJ.C * phi0over2pi
		s.lNext[i] = nd.LNext
		r := nd.Bias / nd.JJ.Ic
		if r > 0.999 {
			r = 0.999
		}
		if r < -0.999 {
			r = -0.999
		}
		s.phi[i] = math.Asin(r)
		s.v[i] = 0
	}
}

// indexSources builds the per-node source index with a stable counting sort,
// preserving each node's original Sources order (the summation order of the
// legacy solver). Sources aimed at out-of-range nodes are dropped, exactly
// as the legacy per-node scan never matched them.
func (s *Solver) indexSources(sources []PulseSource, n int) {
	s.srcPtr = growI(s.srcPtr, n+1)
	s.cnt = growI(s.cnt, n)
	for i := 0; i < n; i++ {
		s.cnt[i] = 0
	}
	valid := 0
	for _, src := range sources {
		if src.Node >= 0 && src.Node < n {
			s.cnt[src.Node]++
			valid++
		}
	}
	if cap(s.srcs) >= valid {
		s.srcs = s.srcs[:valid]
	} else {
		s.srcs = make([]PulseSource, valid)
	}
	s.srcPtr[0] = 0
	for i := 0; i < n; i++ {
		s.srcPtr[i+1] = s.srcPtr[i] + s.cnt[i]
		s.cnt[i] = 0
	}
	for _, src := range sources {
		if src.Node >= 0 && src.Node < n {
			s.srcs[s.srcPtr[src.Node]+s.cnt[src.Node]] = src
			s.cnt[src.Node]++
		}
	}
}

// derivChain evaluates the chain's sine-Gordon right-hand side.
func (s *Solver) derivChain(t float64, phi, v, dphi, dv []float64) {
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

// integrate runs the RK4 loop, streaming each pre-update state to the
// observers. Every pollSteps steps the loop polls the solver's
// cancellation watch — allocation-free on every path, so the
// zero-allocation steady state holds whether or not a watch is armed.
func (s *Solver) integrate(steps, n int, dt float64, obs []Observer) error {
	for step := 0; step < steps; step++ {
		if step&(pollSteps-1) == 0 && s.watch.Canceled() {
			return s.watch.Err()
		}
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
				mDiverged.Inc()
				return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, guard.ErrNonFinite)
			}
			if v := s.v[i]; v > divergedPhiDot || v < -divergedPhiDot {
				mDiverged.Inc()
				return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, guard.ErrDiverged)
			}
		}
	}
	mTransients.Inc()
	mSteps.Add(int64(steps))
	return nil
}

// RunChain integrates the chain over duration T with fixed step dt,
// streaming every sample to the observers. After a warm-up run, repeated
// calls over same-sized chains allocate nothing (observers permitting) —
// provided ctx is uncancellable (context.Background()); a cancelable
// context costs one watch registration per run, never per step. The loop
// polls for cancellation every pollSteps steps and returns an error
// satisfying errors.Is against guard.ErrCanceled (or
// guard.ErrDeadlineExceeded) once ctx fires.
func (s *Solver) RunChain(ctx context.Context, c *Chain, T, dt float64, obs ...Observer) error {
	if dt <= 0 || T <= 0 {
		return errors.New("jsim: T and dt must be positive")
	}
	n := len(c.Nodes)
	if n == 0 {
		return errors.New("jsim: empty chain")
	}
	steps := stepCount(T, dt)
	s.watch.Arm(ctx)
	defer s.watch.Disarm()
	s.prepNodes(c.Nodes)
	s.indexSources(c.Sources, n)
	info := RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: s.bias}
	for _, o := range obs {
		o.Init(info)
	}
	return s.integrate(steps, n, dt, obs)
}
