package jsim

import (
	"context"
	"errors"
	"testing"

	"supernpu/internal/sfq"
)

// A context canceled before the run starts must abort the transient at the
// very first poll, before any physics happens, with context.Canceled — also
// when a Finisher is done at that poll.
func TestRunChainCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var s Solver
	err := s.RunChain(ctx, StandardJTL(4), 120*sfq.Picosecond, 0.02*sfq.Picosecond)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	err = s.RunChain(ctx, StandardJTL(4), 120*sfq.Picosecond, 0.02*sfq.Picosecond, &doneAt{at: 0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("with a finished observer: want context.Canceled, got %v", err)
	}
}

// cancelAtStep cancels its context the first time the observer sees a step
// at or past the trigger — a deterministic mid-transient cancellation.
type cancelAtStep struct {
	at     int
	cancel context.CancelFunc
	last   int
}

func (c *cancelAtStep) Init(info RunInfo) {}
func (c *cancelAtStep) Observe(step int, t float64, phi, v []float64) {
	c.last = step
	if step == c.at {
		c.cancel()
	}
}

// A cancellation mid-transient must surface within one poll interval of the
// step that triggered it: the loop polls ctx.Err() every pollSteps steps.
func TestRunChainCancelMidTransientWithinOnePollInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := &cancelAtStep{at: pollSteps + 1, cancel: cancel}
	var s Solver
	err := s.RunChain(ctx, StandardJTL(4), 120*sfq.Picosecond, 0.02*sfq.Picosecond, trigger)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The observer runs at the top of each step, so the last observed step
	// bounds how far the loop got past the trigger.
	if got, max := trigger.last, trigger.at+pollSteps; got > max {
		t.Fatalf("solver ran to step %d, want stop by %d (trigger %d + poll %d)",
			got, max, trigger.at, pollSteps)
	}
}

// An expired deadline stops the transient with context.DeadlineExceeded.
func TestRunChainDeadlineCarriesTaxonomy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	var s Solver
	err := s.RunChain(ctx, StandardJTL(4), 120*sfq.Picosecond, 0.02*sfq.Picosecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestMarginProbeClassifiesFailures pins how the margin probe sorts a failed
// transient. A numeric failure is evidence about the operating point, so the
// probe reads it as "does not work" and carries on; a cancellation describes
// the attempt, so the probe latches it and the analysis returns it, and the
// jsim cache evicts it instead of memoising a bisection run on garbage.
func TestMarginProbeClassifiesFailures(t *testing.T) {
	// At a 5 ps step the line leaves the voltage bound, as in
	// TestDivergenceDetection.
	p := newMarginProbe(context.Background(), nil, 5*sfq.Picosecond)
	for i := range p.ch.Nodes {
		p.ch.Nodes[i].Bias = marginNominal * marginIc
	}
	err := p.s.RunChain(p.ctx, p.ch, marginProbeT, p.dt)
	if !errors.Is(err, errDiverged) && !errors.Is(err, errNonFinite) {
		t.Fatalf("the probe's line at a 5 ps step: got %v, want a numeric failure", err)
	}
	if p.works(marginNominal) {
		t.Fatal("a diverging probe works")
	}
	if p.err != nil {
		t.Fatalf("a diverging probe latched %v, want no error", p.err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p = newMarginProbe(ctx, nil, transientDt)
	if p.works(marginNominal) {
		t.Fatal("a canceled probe works")
	}
	if !errors.Is(p.err, context.Canceled) {
		t.Fatalf("a canceled probe latched %v, want context.Canceled", p.err)
	}

	cache.Clear()
	before := cache.Len()
	if _, err := biasMarginsCached(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled analysis: got %v, want context.Canceled", err)
	}
	if n := cache.Len(); n != before {
		t.Fatalf("canceled analysis left the jsim cache at %d entries, want %d", n, before)
	}
	got, err := biasMarginsCached(context.Background(), nil)
	if err != nil {
		t.Fatalf("retry with a live context: %v", err)
	}
	want, err := biasMargins(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("retry after a cancellation = %+v, want %+v", got, want)
	}
}
