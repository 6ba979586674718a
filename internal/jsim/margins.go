package jsim

import (
	"context"
	"errors"

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
// the chain under test (built once, re-biased per probe) and a final-state
// observer. Re-biasing and re-running reproduces fresh-chain-per-probe
// trajectories exactly — the netlist is deterministic and only Bias varies
// between probes. The probe carries the analysis's context so every
// transient under it is cancellable.
type marginProbe struct {
	ctx context.Context
	s   Solver
	ch  *Chain
	fin FinalState
	obs []Observer
	dt  float64
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
	p.obs = []Observer{&p.fin}
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
	for i := range p.ch.Nodes {
		if p.fin.Slips(i) != 1 {
			return false
		}
	}
	return true
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
