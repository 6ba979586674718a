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

// Margin-analysis parameters shared by the nominal and faulted analyses: a
// 10-stage line observed for 140 ps with its bias rails designed against
// the nominal 100 µA critical current, each arm bisected from the nominal
// 0.7·Ic working point. The overbias arm starts at 1.2·Ic on the nominal
// line and at 1.5·Ic on a faulted one. Twelve halvings resolve a boundary
// to 1/4096 of its bracket, under the 0.001·Ic the margin sweep prints.
const (
	marginStages     = 10
	marginProbeT     = 140 * sfq.Picosecond
	marginIc         = 100e-6
	marginNominal    = 0.7
	nominalOverbias  = 1.2
	faultedOverbias  = 1.5
	marginBisections = 12
)

func biasMargins(ctx context.Context) (Margins, error) {
	probe := newMarginProbe(ctx, NewSolver(), nil, transientDt)
	if !probe.works(marginNominal) {
		if err := probe.err; err != nil {
			return Margins{}, err
		}
		return Margins{}, errors.New("jsim: JTL fails at the nominal bias point")
	}
	// The two bisection arms run concurrently, each reusing one solver and
	// one chain across its probes.
	arms, err := parallel.MapLocalContext(ctx, 2,
		func() *marginProbe { return newMarginProbe(ctx, NewSolver(), nil, transientDt) },
		func(ctx context.Context, p *marginProbe, i int) (float64, error) {
			var v float64
			if i == 0 {
				v = p.bisect(0.0, marginNominal, marginBisections)
			} else {
				v = p.bisect(nominalOverbias, marginNominal, marginBisections)
			}
			return v, p.err
		})
	if err != nil {
		return Margins{}, err
	}
	return Margins{Low: arms[0], High: arms[1]}, nil
}
