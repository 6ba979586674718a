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
// A Finisher among a run's observers may end it before its last sample;
// every observer of that run then sees only the samples up to that point.
type Observer interface {
	Init(info RunInfo)
	Observe(step int, t float64, phi, v []float64)
}

// Finisher is an Observer that can end a run once its result is final. The
// solver asks Done after the observers have seen every pollSteps-th sample
// (step 0, pollSteps, 2·pollSteps, …) and ends the run there when it
// reports true: the run returns nil and integrates no further step.
type Finisher interface {
	Observer
	Done() bool
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
// concurrent use; give each concurrent job its own (a margin analysis
// builds one per computed variant). The zero value is ready to use;
// buffers are sized on first use.
type Solver struct {
	// Struct-of-arrays per-node constants, hoisted once per run.
	bias  []float64 // DC bias current
	ic    []float64 // junction critical current
	res   []float64 // shunt resistance
	cphi  []float64 // C·Φ0/2π, the φ̈ denominator
	lNext []float64 // chain inductance to the next node

	// Per-node source index: srcs[srcPtr[i]:srcPtr[i+1]] are the pulse
	// sources driving node i, in their original Sources order. srcEnd[k] is
	// srcs[k]'s cutoff time (PulseSource.cutoffTime) and srcCur[k] its
	// current at the stage time being integrated.
	srcPtr []int
	srcs   []PulseSource
	srcEnd []float64
	srcCur []float64
	cnt    []int // counting-sort scratch

	// State and RK4 scratch. The stage inputs ping-pong between (ap, av)
	// and (bp, bv); sumP and sumV accumulate k1 + 2k2 + 2k3 + k4, and sn
	// holds the sines of the current stage input.
	phi, v     []float64
	ap, av     []float64
	bp, bv     []float64
	sumP, sumV []float64
	sn         []float64
}

// pollSteps is the poll interval of the RK4 loop: after the observers have
// seen every pollSteps-th sample the solver calls ctx.Err() and asks each
// Finisher whether it is done, so a canceled transient returns within
// pollSteps steps without the loop ever allocating, and a finished one
// stops within pollSteps steps of its verdict. On a cancelable context each
// poll takes the context's mutex once. Must be a power of two; the loop
// tests step&(pollSteps-1).
const pollSteps = 16

// divergedVoltage is the per-node voltage bound beyond which a transient
// is declared diverged: SFQ pulse amplitudes sit in the millivolt range,
// so a solver state reaching a full volt is numerically blown up even
// while still technically finite. The solver state carries φ̇ in rad/s
// (V = Φ0/2π·φ̇), so the comparison happens against divergedPhiDot, the
// same bound in state units. The check is a read-only comparison and
// cannot perturb the trajectory of a healthy run. divergedFmt formats the
// failure, with a trailing %w for errDiverged or errNonFinite: the margin
// probe reads either as "this bias does not work" and latches any other
// error (a cancellation).
const (
	divergedVoltage = 1.0
	divergedPhiDot  = divergedVoltage / phi0over2pi
	divergedFmt     = "jsim: solution diverged at t=%.3gps node %d: %w"
)

var (
	errDiverged  = errors.New("voltage out of bounds")
	errNonFinite = errors.New("non-finite phase")
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
	s.ap, s.av = growF(s.ap, n), growF(s.av, n)
	s.bp, s.bv = growF(s.bp, n), growF(s.bv, n)
	s.sumP, s.sumV = growF(s.sumP, n), growF(s.sumV, n)
	s.sn = growF(s.sn, n)
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
	s.srcEnd = growF(s.srcEnd, valid)
	s.srcCur = growF(s.srcCur, valid)
	s.srcPtr[0] = 0
	for i := 0; i < n; i++ {
		s.srcPtr[i+1] = s.srcPtr[i] + s.cnt[i]
		s.cnt[i] = 0
	}
	for _, src := range sources {
		if src.Node >= 0 && src.Node < n {
			k := s.srcPtr[src.Node] + s.cnt[src.Node]
			s.srcs[k] = src
			s.srcEnd[k] = src.cutoffTime()
			s.cnt[src.Node]++
		}
	}
}

// sourceCurrents evaluates every pulse source at stage time t into srcCur.
// Past its cutoff time a source's exponential is exactly 0, so Amp·0 is the
// value current returns there and the exponential is not evaluated.
func (s *Solver) sourceCurrents(t float64) {
	for k := range s.srcs {
		if t < s.srcEnd[k] {
			s.srcCur[k] = s.srcs[k].current(t)
		} else {
			s.srcCur[k] = s.srcs[k].Amp * 0
		}
	}
}

// The four stages of an RK4 step. They differ only in what a stage does
// with the derivative it computes: which next-stage input it writes and how
// it folds itself into the RK4 sums.
const (
	stage1 = iota
	stage2
	stage3
	stage4
)

// stage evaluates the chain's sine-Gordon right-hand side at the stage input
// (inP, inV), with srcCur holding the sources at the stage time, and
// consumes the derivative at once. Stages 1–3 write the next stage's input
// phi + c·k to (outP, outV); stage 4 ends the step with phi += c·Σ, c being
// dt/6. It returns the first node whose updated state is non-finite or
// outside the voltage bound, or -1.
//
// Every floating-point operation of the textbook step is kept, in the same
// association (TestFusedStepBitIdenticalToReference):
//   - The sines are taken in their own pass: the calls are independent, so
//     the core overlaps them instead of waiting on each one inside the
//     dependent current sum.
//   - Each link current Φ0/2π·(φ[i+1]−φ[i])/L[i] is computed once, added to
//     node i and subtracted from node i+1. IEEE subtraction, multiplication
//     and division round symmetrically in sign, so that is the textbook
//     term exactly; only a −0 bias could tell the +0 of two equal phases
//     from its negation. Node 0 subtracts +0, which is exact.
//   - A stage's dφ/dt is its input v, and the sums grow as
//     ((k1 + 2k2) + 2k3) + k4, the association of the textbook sum.
func (s *Solver) stage(st int, inP, inV, outP, outV []float64, c float64) int {
	n := len(s.phi)
	inP, inV, sn := inP[:n], inV[:n], s.sn[:n]
	for i, p := range inP {
		sn[i] = math.Sin(p)
	}
	bias, ic, res, cphi, lNext := s.bias[:n], s.ic[:n], s.res[:n], s.cphi[:n], s.lNext[:n]
	phi, v, sumP, sumV := s.phi[:n], s.v[:n], s.sumP[:n], s.sumV[:n]
	srcPtr, srcCur := s.srcPtr[:n+1], s.srcCur
	link := 0.0 // the current node i-1 draws from node i through L[i-1]
	for i := 0; i < n; i++ {
		cur := bias[i]
		for _, sc := range srcCur[srcPtr[i]:srcPtr[i+1]] {
			cur += sc
		}
		cur -= link
		if i+1 < n {
			link = phi0over2pi * (inP[i+1] - inP[i]) / lNext[i]
			cur += link
		}
		cur -= ic[i] * sn[i]
		cur -= phi0over2pi * inV[i] / res[i]
		dp, dv := inV[i], cur/cphi[i]
		switch st {
		case stage1:
			outP[i] = phi[i] + c*dp
			outV[i] = v[i] + c*dv
			sumP[i], sumV[i] = dp, dv
		case stage2, stage3:
			outP[i] = phi[i] + c*dp
			outV[i] = v[i] + c*dv
			sumP[i] += 2 * dp
			sumV[i] += 2 * dv
		default:
			p := phi[i] + c*(sumP[i]+dp)
			w := v[i] + c*(sumV[i]+dv)
			phi[i], v[i] = p, w
			if math.IsNaN(p) || math.IsInf(p, 0) || w > divergedPhiDot || w < -divergedPhiDot {
				return i
			}
		}
	}
	return -1
}

// step advances (phi, v) by one RK4 step from time t. The sources are
// evaluated once per distinct stage time: t, t+dt/2 (stages 2 and 3) and
// t+dt. 0.5·dt and dt/6 are hoisted; Go evaluates the textbook's 0.5*dt*k
// and dt / 6 * s as (0.5*dt)*k and (dt/6)*s, so they are the same values.
func (s *Solver) step(t, dt float64) error {
	h := 0.5 * dt
	s.sourceCurrents(t)
	s.stage(stage1, s.phi, s.v, s.ap, s.av, h)
	s.sourceCurrents(t + h)
	s.stage(stage2, s.ap, s.av, s.bp, s.bv, h)
	s.stage(stage3, s.bp, s.bv, s.ap, s.av, dt)
	s.sourceCurrents(t + dt)
	i := s.stage(stage4, s.ap, s.av, nil, nil, dt/6)
	if i < 0 {
		return nil
	}
	mDiverged.Inc()
	if p := s.phi[i]; math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, errNonFinite)
	}
	return fmt.Errorf(divergedFmt, t/sfq.Picosecond, i, errDiverged)
}

// integrate runs the RK4 loop, streaming each pre-update state to the
// observers, and stops after the last sample: no observer would see a
// further step. After every pollSteps-th sample it polls ctx.Err() and the
// Finishers among obs, neither of which allocates, so the zero-allocation
// steady state holds for every context. A run that a Finisher ends counts
// as one completed transient of the steps it integrated.
func (s *Solver) integrate(ctx context.Context, steps int, dt float64, obs []Observer) error {
	var step int
	for ; ; step++ {
		t := float64(step) * dt
		for _, o := range obs {
			o.Observe(step, t, s.phi, s.v)
		}
		if step&(pollSteps-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if finished(obs) {
				break
			}
		}
		if step == steps-1 {
			break
		}
		if err := s.step(t, dt); err != nil {
			return err
		}
	}
	mTransients.Inc()
	mSteps.Add(int64(step))
	return nil
}

// finished reports whether some Finisher among obs is done.
func finished(obs []Observer) bool {
	for _, o := range obs {
		if f, ok := o.(Finisher); ok && f.Done() {
			return true
		}
	}
	return false
}

// RunChain integrates the chain over duration T with fixed step dt,
// streaming every sample to the observers, or up to the sample at which a
// Finisher among them reports done. After a warm-up run, repeated calls
// over same-sized chains allocate nothing (observers permitting). The loop
// polls ctx.Err() every pollSteps steps and returns it once ctx fires:
// context.Canceled or context.DeadlineExceeded.
func (s *Solver) RunChain(ctx context.Context, c *Chain, T, dt float64, obs ...Observer) error {
	if dt <= 0 || T <= 0 {
		return errors.New("jsim: T and dt must be positive")
	}
	n := len(c.Nodes)
	if n == 0 {
		return errors.New("jsim: empty chain")
	}
	steps := stepCount(T, dt)
	s.prepNodes(c.Nodes)
	s.indexSources(c.Sources, n)
	info := RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: s.bias}
	for _, o := range obs {
		o.Init(info)
	}
	return s.integrate(ctx, steps, dt, obs)
}
