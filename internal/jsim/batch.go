// The batched chain runner: independent transients (margin grid points,
// fault variants, calibration probes) fan out across the worker pool with
// one reusable Solver per worker, so a whole sweep allocates solver scratch
// only Workers() times regardless of how many chains it integrates.
package jsim

import (
	"context"
	"errors"

	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/parallel"
)

// BatchJob is one independent transient of a RunBatch: a chain, its
// duration and step, and the observers to stream it into. Jobs must not
// share mutable state — in particular, each job needs its own observers.
type BatchJob struct {
	Chain     *Chain
	T, Dt     float64
	Observers []Observer
}

// RunBatch integrates independent chains across the parallel pool with one
// reused Solver per worker. The error contract is the pool's: the error
// of the lowest failing job, with fail-fast scheduling after it.
// Cancellation of ctx stops both the pool's claiming of new jobs and, via
// each solver's watch, the transients already in flight.
func RunBatch(ctx context.Context, jobs []BatchJob) error {
	return parallel.ForEachLocalContext(ctx, len(jobs), NewSolver,
		func(ctx context.Context, s *Solver, i int) error {
			j := &jobs[i]
			return s.RunChain(ctx, j.Chain, j.T, j.Dt, j.Observers...)
		})
}

// BiasMarginsFaultedBatch measures the operating bias margins of many fault
// variants across the worker pool: entry i of the result corresponds to
// fms[i]. Each worker reuses one Solver for every bisection probe of every
// grid point it claims; results are memoised under the same keys as
// BiasMarginsFaulted, so a re-sweep (or a later single query) is free.
func BiasMarginsFaultedBatch(ctx context.Context, fms []*faultinject.Model) ([]Margins, error) {
	return parallel.MapLocalContext(ctx, len(fms), NewSolver,
		func(ctx context.Context, s *Solver, i int) (Margins, error) {
			return biasMarginsFaultedCached(ctx, fms[i], s)
		})
}

// biasMarginsFaultedCached resolves one fault variant's margins through the
// memo cache, running the bisections on the given solver on a miss. A
// disabled model shares the nominal BiasMargins entry.
func biasMarginsFaultedCached(ctx context.Context, fm *faultinject.Model, s *Solver) (Margins, error) {
	if !fm.Enabled() {
		return BiasMargins(ctx)
	}
	var kb [128]byte
	v, err := cache.GetOrCompute(appendExtractionKey(kb[:0], "bias-margins/10", fm), func() (any, error) {
		return biasMarginsFaulted(ctx, fm, s)
	})
	if err != nil {
		return Margins{}, err
	}
	return v.(Margins), nil
}

// marginProbe is the reusable state of one bias-margin bisection arm: a
// solver, the chain under test (rebuilt once, re-biased per probe) and a
// final-state observer. Re-biasing and re-running reproduces the legacy
// fresh-chain-per-probe trajectories exactly — the netlist is deterministic
// and only Bias varied between probes. The probe carries the bisection's
// context (its lifetime is one margin analysis) so every transient under
// it is cancellable.
type marginProbe struct {
	ctx    context.Context
	s      *Solver
	ch     *Chain
	biasIc []float64 // per-node current the probe bias multiplies
	fin    FinalState
	obs    []Observer
	T, dt  float64
	// err latches the first non-numeric solver failure (cancellation or
	// deadline): those describe the attempt, not the operating point, so
	// "works == false" must not stand in for them — a canceled bisection
	// otherwise converges on garbage and memoises it. Numeric failures
	// stay what they always were: evidence the point is outside the
	// margin.
	err error
}

// newMarginProbe builds a probe over ch whose probe bias is expressed in
// multiples of biasIc[i] for node i.
func newMarginProbe(ctx context.Context, s *Solver, ch *Chain, biasIc []float64, T, dt float64) *marginProbe {
	p := &marginProbe{ctx: ctx, s: s, ch: ch, biasIc: biasIc, T: T, dt: dt}
	p.obs = []Observer{&p.fin}
	return p
}

// works reports whether the chain delivers exactly one pulse per junction at
// the given bias multiple. After a latched error it reports false without
// simulating; callers must check p.err before trusting a bisection result.
func (p *marginProbe) works(bias float64) bool {
	if p.err != nil {
		return false
	}
	for i := range p.ch.Nodes {
		p.ch.Nodes[i].Bias = bias * p.biasIc[i]
	}
	if err := p.s.RunChain(p.ctx, p.ch, p.T, p.dt, p.obs...); err != nil {
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

// bisect walks the works boundary between a failing and a working bias.
func (p *marginProbe) bisect(bad, good float64) float64 {
	for i := 0; i < 12; i++ {
		mid := (bad + good) / 2
		if p.works(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}

// perJunctionIc returns each node's own critical current — the bias basis of
// the nominal margin analysis.
func perJunctionIc(ch *Chain) []float64 {
	ic := make([]float64, len(ch.Nodes))
	for i := range ch.Nodes {
		ic[i] = ch.Nodes[i].JJ.Ic
	}
	return ic
}

// uniformIc returns a constant bias basis — the design-point current the
// faulted analysis holds the rails at.
func uniformIc(n int, ic float64) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = ic
	}
	return b
}

// ErrUnbracketedOverbias reports that a perturbed JTL still single-pulses at
// the top of the bisection range, so the overbias bound cannot be bracketed.
var ErrUnbracketedOverbias = errors.New("jsim: perturbed JTL still single-pulses at 1.5x Ic; overbias bound not bracketed")

// biasMarginsFaulted runs the faulted bisections serially on one solver.
func biasMarginsFaulted(ctx context.Context, fm *faultinject.Model, s *Solver) (Margins, error) {
	const (
		stages    = 10
		nominalIc = 100e-6 // the bias rails are designed against this
		nominal   = 0.7
	)
	p := newMarginProbe(ctx, s, PerturbedJTL(stages, fm), uniformIc(stages, nominalIc),
		marginProbeT, marginProbeDt)
	if !p.works(nominal) {
		if err := p.err; err != nil {
			return Margins{}, err
		}
		// The spread closed the window at the design point outright: the
		// chip margin is zero.
		return Margins{Low: nominal, High: nominal}, nil
	}
	if p.works(1.5) {
		return Margins{}, ErrUnbracketedOverbias
	}
	m := Margins{Low: p.bisect(0.0, nominal), High: p.bisect(1.5, nominal)}
	if err := p.err; err != nil {
		return Margins{}, err
	}
	return m, nil
}
