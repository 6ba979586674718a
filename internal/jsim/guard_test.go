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
