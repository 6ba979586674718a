// Package guard is the resilience layer of the simulation core: a typed,
// errors.Is-able failure taxonomy plus a cancellation poll cheap enough
// for the RK4 hot loop (Watch), which the modeling packages use to stay
// cancellable.
//
// Every failure a long-running simulation can hit maps onto one of four
// sentinels:
//
//	ErrCanceled         the caller's context was canceled
//	ErrDeadlineExceeded the caller's context deadline passed
//	ErrDiverged         the numeric state left its physical bounds
//	ErrNonFinite        a NaN or Inf appeared in the state or a result
//
// The first two are transient: retrying the same computation with a fresh
// context can succeed, so caches must never memoise them (simcache evicts
// them, see IsCancellation). The last two are deterministic properties of
// the inputs and are safe to memoise.
//
// Nothing in this package reads the wall clock or draws randomness, so
// every classification is reproducible byte for byte across runs and
// worker counts — the repository's core determinism contract.
package guard

import (
	"context"
	"errors"
	"fmt"
)

// The failure taxonomy. All errors produced by this package (and by the
// modeling packages' guard integration points) wrap exactly one of these,
// so callers classify failures with errors.Is and never by string.
var (
	// ErrCanceled marks work abandoned because the caller's context was
	// canceled. Errors wrapping it also wrap context.Canceled.
	ErrCanceled = errors.New("guard: canceled")
	// ErrDeadlineExceeded marks work abandoned because the caller's
	// context deadline passed. Errors wrapping it also wrap
	// context.DeadlineExceeded.
	ErrDeadlineExceeded = errors.New("guard: deadline exceeded")
	// ErrDiverged marks a simulation whose state left its physical bounds
	// and could not recover.
	ErrDiverged = errors.New("guard: diverged")
	// ErrNonFinite marks a NaN or Inf detected in simulation state or in
	// a derived result.
	ErrNonFinite = errors.New("guard: non-finite value")
)

// CtxErr maps ctx.Err() into the taxonomy: nil while the context is live,
// otherwise an error wrapping both the matching guard sentinel
// (ErrCanceled or ErrDeadlineExceeded) and the original context error, so
// errors.Is succeeds against either family.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return wrapCtx(err)
	}
	return nil
}

// WrapCancellation lifts an error that carries a bare context sentinel
// somewhere in its chain into the guard taxonomy. Errors already classified
// and errors unrelated to cancellation pass through unchanged.
func WrapCancellation(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return wrapCtx(err)
	}
	return err
}

func wrapCtx(err error) error {
	mCancellations.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// IsCancellation reports whether err belongs to the cancellation class:
// guard or context cancellation/deadline sentinels anywhere in the chain.
// Such an error describes this particular attempt rather than the
// computation's inputs, so it must never be memoised — the same inputs can
// succeed under a fresh context.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsNumeric reports whether err describes a numeric simulation failure
// (divergence or a non-finite value) — evidence about the operating point,
// which the bias-margin probe treats as "does not work". Numeric failures
// are deterministic in the inputs.
func IsNumeric(err error) bool {
	return errors.Is(err, ErrDiverged) || errors.Is(err, ErrNonFinite)
}
