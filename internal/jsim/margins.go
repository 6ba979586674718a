package jsim

import (
	"context"
	"errors"
	"math"

	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/parallel"
	"supernpu/internal/sfq"
)

// Margins is an operating-margin analysis result: the bias range (as a
// fraction of the nominal point) over which a cell still functions — the
// standard robustness metric of SFQ cell characterisation.
type Margins struct {
	Low, High float64 // working bias limits as multiples of Ic
}

// Width is the relative margin width around the nominal 0.7·Ic point.
func (m Margins) Width() float64 { return m.High - m.Low }

// BiasMargins measures the JTL's operating bias margins by bisection: the
// lowest and highest global bias (in multiples of Ic) at which a 10-stage
// line still delivers exactly one pulse per injected fluxon. SFQ cells are
// typically quoted with ±20–30% bias margins. The result is memoised (a
// canceled computation is evicted, not poisoned in).
func BiasMargins(ctx context.Context) (Margins, error) {
	return biasMarginsCached(ctx, nil)
}

// BiasMarginsFaultedBatch measures the operating bias margins of many fault
// variants across the worker pool: entry i of the result corresponds to
// fms[i]. Each variant's JTL carries the model's Ic spread, and its bias
// rails are held at multiples of the nominal (design-point) critical
// current. Spread need not narrow the window: the high boundary tracks the
// weakest junction, which free-runs first, but the low one tracks junction
// 0, which the fixed 1.8·Ic input pulse stops switching first, so that arm
// measures the trigger stage, not the line (seed 42 at 2 % spread reads
// 0.599–0.996·Ic, nominal 0.599–0.987). Results are memoised per fault key,
// so a re-sweep is free; a disabled model shares the nominal BiasMargins
// entry.
func BiasMarginsFaultedBatch(ctx context.Context, fms []*faultinject.Model) ([]Margins, error) {
	out := make([]Margins, len(fms))
	err := parallel.ForEachContext(ctx, len(fms), func(ctx context.Context, i int) error {
		m, err := biasMarginsCached(ctx, fms[i])
		out[i] = m
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// biasMarginsCached resolves one variant's margins through the memo cache,
// running the bisections on a miss. A disabled model keys like nil, so it
// shares the nominal entry.
func biasMarginsCached(ctx context.Context, fm *faultinject.Model) (Margins, error) {
	var kb [128]byte
	v, err := cache.GetOrCompute(appendExtractionKey(kb[:0], "bias-margins/10", fm), func() (any, error) {
		return biasMargins(ctx, fm)
	})
	if err != nil {
		return Margins{}, err
	}
	return v.(Margins), nil
}

// Margin-analysis parameters shared by the nominal and faulted analyses: a
// 10-stage line observed for 140 ps with its bias rails designed against
// the nominal 100 µA critical current, each arm bisected from the nominal
// 0.7·Ic working point. The overbias arm starts at 1.2·Ic on the nominal
// line and at 1.5·Ic on a faulted one (see overbias). Twelve halvings
// resolve a boundary to 1/4096 of its bracket, under the 0.001·Ic the
// margin sweep prints.
const (
	marginStages     = 10
	marginProbeT     = 140 * sfq.Picosecond
	marginIc         = 100e-6
	marginNominal    = 0.7
	nominalOverbias  = 1.2
	faultedOverbias  = 1.5
	marginBisections = 12
)

// overbias is the failing end of the overbias arm's bracket: 1.2·Ic for a
// disabled fault model, 1.5·Ic for a line the model perturbs.
func overbias(fm *faultinject.Model) float64 {
	if fm.Enabled() {
		return faultedOverbias
	}
	return nominalOverbias
}

// ErrUnbracketedOverbias reports that a JTL still single-pulses at the top
// of the overbias bracket, so the overbias bound cannot be bracketed.
var ErrUnbracketedOverbias = errors.New("jsim: JTL still single-pulses at the top of the overbias bracket; overbias bound not bracketed")

// biasMargins is the margin bisection driver. It runs serially on one
// probe: the design point must work and the top of the overbias bracket
// must fail, then each arm is bisected from the design point.
func biasMargins(ctx context.Context, fm *faultinject.Model) (Margins, error) {
	p := newMarginProbe(ctx, fm, transientDt)
	if !p.works(marginNominal) {
		if err := p.err; err != nil {
			return Margins{}, err
		}
		// The spread closed the window at the design point outright: the
		// chip margin is zero.
		return Margins{Low: marginNominal, High: marginNominal}, nil
	}
	top := overbias(fm)
	if p.works(top) {
		return Margins{}, ErrUnbracketedOverbias
	}
	m := Margins{
		Low:  p.bisect(0.0, marginNominal, marginBisections),
		High: p.bisect(top, marginNominal, marginBisections),
	}
	if err := p.err; err != nil {
		return Margins{}, err
	}
	return m, nil
}

// marginProbe is the state of one bias-margin analysis: its own solver,
// the chain under test (built once, re-biased per probe) and the verdict
// observer. Re-biasing and re-running reproduces fresh-chain-per-probe
// trajectories exactly — the netlist is deterministic and only Bias varies
// between probes. The probe carries the analysis's context so every
// transient under it is cancellable.
type marginProbe struct {
	ctx     context.Context
	s       Solver
	ch      *Chain
	verdict marginVerdict
	obs     []Observer
	dt      float64
	// err latches the first non-numeric solver failure (cancellation or
	// deadline): those describe the attempt, not the operating point, so
	// "works == false" must not stand in for them — a canceled bisection
	// otherwise converges on garbage and memoises it. Numeric failures
	// are evidence the point is outside the margin.
	err error
}

// newMarginProbe builds a probe over the margin-analysis JTL carrying fm's
// Ic spread (the nominal line for a disabled model), integrated at step dt.
func newMarginProbe(ctx context.Context, fm *faultinject.Model, dt float64) *marginProbe {
	p := &marginProbe{ctx: ctx, ch: PerturbedJTL(marginStages, fm), dt: dt}
	p.verdict.ch = p.ch
	p.obs = []Observer{&p.verdict}
	return p
}

// works reports whether the chain delivers exactly one pulse per junction at
// the given bias, in multiples of the design-point Ic. After a latched error
// it reports false without simulating; callers must check p.err before
// trusting a bisection result.
func (p *marginProbe) works(bias float64) bool {
	if p.err != nil {
		return false
	}
	for i := range p.ch.Nodes {
		p.ch.Nodes[i].Bias = bias * marginIc
	}
	if err := p.s.RunChain(p.ctx, p.ch, marginProbeT, p.dt, p.obs...); err != nil {
		if !guard.IsNumeric(err) {
			p.err = err
		}
		return false
	}
	return p.verdict.works
}

// marginVerdict is the margin probe's observer. A probe works when every
// junction of the line has slipped exactly once by the end of the window;
// marginVerdict settles that verdict and ends the run as soon as it is
// final. It judges the samples the solver polls it at (every pollSteps-th)
// and the last sample, where it reads the slip counts as a full-window run
// does. At a polled sample two rules may settle it early.
//
// Stage 1 (certified, not proved): a junction that has slipped twice, or
// backwards, fails the probe. A junction can in principle slip back, so
// this is not a theorem; TestMarginVerdictMatchesFullWindow checks it
// against full-window runs, and `make margin-cert` over 1,501 variants.
//
// Stage 2 (proved): once every source is exactly zero (the sample time is
// at or past the last source's cutoffTime) and every junction has
// 0 ≤ Ib_j < Ic_j, the run stops if the chain is trapped in its potential
// wells, and the probe works iff every slip count is 1. In units of Φ0/2π
// (current·rad), with v = φ̇,
//
//	E = Σ_j [½·C_j·(Φ0/2π)·v_j² + Ic_j(1−cos φ_j) − Ib_j·φ_j]
//	    + Σ_{j<n−1} (Φ0/2π)(φ_{j+1}−φ_j)²/(2L_j)
//	a_j = asin(Ib_j/Ic_j),  k_j = ⌊(φ_j+π+a_j)/2π⌋
//	U_j = Ic_j(1−cos a_j) − Ib_j(a_j+2πk_j)
//	ΔU_j = 2·Ic_j·cos a_j − Ib_j(π−2a_j)
//
// and the chain is trapped when E − Σ_j U_j < ½·min_j ΔU_j. Proof:
//   - With the sources zero, the circuit equations give
//     dE/dt = −Σ_j (Φ0/2π)·v_j²/R_j ≤ 0: E never rises.
//   - The kinetic and inductor terms are ≥ 0.
//   - Junction j's own term u_j(φ) = Ic_j(1−cos φ) − Ib_j·φ has its wells
//     between barriers at π−a_j+2πk; inside well k_j it is ≥ U_j, its
//     minimum, at a_j+2πk_j. The right barrier stands ΔU_j above U_j, the
//     left one 2π·Ib_j higher still (ΔU_j > 0 for 0 ≤ Ib_j < Ic_j; for a
//     negative bias the left barrier would be the lower one).
//   - So the first junction i to reach a barrier would need
//     E − Σ U ≥ ΔU_i ≥ min ΔU at that instant. E has not risen since,
//     so no junction ever leaves its well, and every k_j is final.
//   - The slip count ⌊(φ_j+π)/2π⌋ differs from k_j only on the strip from
//     the left barrier up to −π+2πk_j, where u_j − U_j is at least
//     Ic_j(1+cos a_j) + Ib_j(π+a_j), more than ΔU_j. So no junction is on
//     it, now or later, and every slip count stays k_j.
//   - The factor ½ covers RK4's discrete energy error: the largest
//     one-step rise of E after the cutoff, over 25 variants on a
//     0.40–0.98·Ic bias grid, is 1.3e-10 of the smallest barrier
//     (TestMarginEnergyNeverRises bounds it at 1e-6).
//
// The verdict is read after every run that returns nil; it is undefined
// after an error.
type marginVerdict struct {
	ch    *Chain    // the chain every observed run integrates
	last  int       // index of the run's last sample
	start float64   // time from which stage 2 applies; +Inf when it never does
	half  float64   // ½·min_j ΔU_j
	a     []float64 // a_j
	cosA  []float64 // cos a_j

	done, works bool
}

// Init implements Observer: it derives the wells of the chain at its
// current bias.
func (m *marginVerdict) Init(info RunInfo) {
	m.last = info.Steps - 1
	m.done, m.works = false, false
	m.a = growF(m.a, info.Nodes)
	m.cosA = growF(m.cosA, info.Nodes)
	m.start = math.Inf(-1)
	for _, src := range m.ch.Sources {
		m.start = math.Max(m.start, src.cutoffTime())
	}
	minDU := math.Inf(1)
	for j := range m.a {
		ic, ib := m.ch.Nodes[j].JJ.Ic, m.ch.Nodes[j].Bias
		if !(ib >= 0 && ib < ic) {
			m.start = math.Inf(1)
			continue
		}
		a := math.Asin(ib / ic)
		m.a[j], m.cosA[j] = a, math.Cos(a)
		minDU = math.Min(minDU, 2*ic*m.cosA[j]-ib*(math.Pi-2*a))
	}
	m.half = minDU / 2
}

// Observe implements Observer.
func (m *marginVerdict) Observe(step int, t float64, phi, v []float64) {
	if step&(pollSteps-1) != 0 && step != m.last {
		return
	}
	once := true
	for _, p := range phi {
		switch k := slips(p); {
		case k >= 2 || k < 0:
			m.done, m.works = true, false
			return
		case k != 1:
			once = false
		}
	}
	if step == m.last || t >= m.start && m.excess(phi, v) < m.half {
		m.done, m.works = true, once
	}
}

// Done implements Finisher.
func (m *marginVerdict) Done() bool { return m.done }

// excess is E − Σ_j U_j at the state (phi, v), summed term by term, each
// term relative to its own well so no large quantities cancel.
func (m *marginVerdict) excess(phi, v []float64) float64 {
	nodes := m.ch.Nodes[:len(phi)]
	e := 0.0
	for j, p := range phi {
		nd := &nodes[j]
		ic, ib, a := nd.JJ.Ic, nd.Bias, m.a[j]
		k := math.Floor((p + math.Pi + a) / (2 * math.Pi))
		e += 0.5*nd.JJ.C*phi0over2pi*v[j]*v[j] + ic*(m.cosA[j]-math.Cos(p)) - ib*(p-a-2*math.Pi*k)
		if j+1 < len(phi) {
			d := phi[j+1] - p
			e += phi0over2pi * d * d / (2 * nd.LNext)
		}
	}
	return e
}

// bisect walks the works boundary between a failing and a working bias,
// halving the bracket n times.
func (p *marginProbe) bisect(bad, good float64, n int) float64 {
	for i := 0; i < n; i++ {
		mid := (bad + good) / 2
		if p.works(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}
