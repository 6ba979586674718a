package jsim

import (
	"context"
	"errors"

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
// canceled computation is evicted, not poisoned in); the two bisection
// arms run concurrently, each transient its own netlist.
func BiasMargins(ctx context.Context) (Margins, error) {
	var kb [128]byte
	v, err := cache.GetOrCompute(appendExtractionKey(kb[:0], "bias-margins/10", nil), func() (any, error) {
		return biasMargins(ctx)
	})
	if err != nil {
		return Margins{}, err
	}
	return v.(Margins), nil
}

// Bisection probe parameters shared by the nominal and faulted margin
// analyses: a 10-stage line observed for 140 ps at a 0.05 ps step.
const (
	marginProbeT  = 140 * sfq.Picosecond
	marginProbeDt = 0.05 * sfq.Picosecond
)

// newNominalProbe builds a fresh nominal-JTL margin probe on the solver.
func newNominalProbe(ctx context.Context, s *Solver) *marginProbe {
	ch := StandardJTL(10)
	return newMarginProbe(ctx, s, ch, perJunctionIc(ch), marginProbeT, marginProbeDt)
}

func biasMargins(ctx context.Context) (Margins, error) {
	const nominal = 0.7
	probe := newNominalProbe(ctx, NewSolver())
	if !probe.works(nominal) {
		if err := probe.err; err != nil {
			return Margins{}, err
		}
		return Margins{}, errors.New("jsim: JTL fails at the nominal bias point")
	}
	// The two bisection arms run concurrently, each reusing one solver and
	// one chain across its probes.
	arms, err := parallel.MapLocalContext(ctx, 2,
		func() *marginProbe { return newNominalProbe(ctx, NewSolver()) },
		func(ctx context.Context, p *marginProbe, i int) (float64, error) {
			var v float64
			if i == 0 {
				v = p.bisect(0.0, nominal)
			} else {
				v = p.bisect(1.2, nominal)
			}
			return v, p.err
		})
	if err != nil {
		return Margins{}, err
	}
	return Margins{Low: arms[0], High: arms[1]}, nil
}
