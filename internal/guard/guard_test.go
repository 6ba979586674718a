package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestCtxErrLiveContext(t *testing.T) {
	if err := CtxErr(context.Background()); err != nil {
		t.Fatalf("CtxErr(Background) = %v, want nil", err)
	}
}

func TestCtxErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CtxErr(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("canceled context misclassified as deadline: %v", err)
	}
}

func TestCtxErrDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := CtxErr(ctx)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("errors.Is(err, ErrDeadlineExceeded) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

func TestWrapCancellation(t *testing.T) {
	base := fmt.Errorf("sweep point 3: %w", context.Canceled)
	err := WrapCancellation(base)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("wrapped chain lost ErrCanceled: %v", err)
	}
	// Already-classified errors pass through unchanged.
	if again := WrapCancellation(err); again != err {
		t.Errorf("double wrap changed error: %v -> %v", err, again)
	}
	// Unrelated errors pass through unchanged.
	plain := errors.New("plain")
	if got := WrapCancellation(plain); got != plain {
		t.Errorf("unrelated error rewritten: %v", got)
	}
	if got := WrapCancellation(nil); got != nil {
		t.Errorf("WrapCancellation(nil) = %v", got)
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		err                   error
		cancellation, numeric bool
	}{
		{fmt.Errorf("x: %w", ErrCanceled), true, false},
		{fmt.Errorf("x: %w", ErrDeadlineExceeded), true, false},
		{fmt.Errorf("x: %w", context.Canceled), true, false},
		{fmt.Errorf("x: %w", ErrDiverged), false, true},
		{fmt.Errorf("x: %w", ErrNonFinite), false, true},
		{errors.New("plain"), false, false},
	}
	for _, c := range cases {
		if got := IsCancellation(c.err); got != c.cancellation {
			t.Errorf("IsCancellation(%v) = %v, want %v", c.err, got, c.cancellation)
		}
		if got := IsNumeric(c.err); got != c.numeric {
			t.Errorf("IsNumeric(%v) = %v, want %v", c.err, got, c.numeric)
		}
	}
}

func TestWatchInertForBackground(t *testing.T) {
	var w Watch
	w.Arm(context.Background())
	defer w.Disarm()
	if w.Canceled() {
		t.Error("Background watch reports canceled")
	}
	if err := w.Err(); err != nil {
		t.Errorf("Background watch Err() = %v", err)
	}
}

func TestWatchFiresOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var w Watch
	w.Arm(ctx)
	defer w.Disarm()
	if w.Canceled() {
		t.Fatal("watch fired before cancel")
	}
	cancel()
	// Cancellation publishes the context error before cancel() returns, so
	// the very next poll must observe it — no settling loop needed.
	if !w.Canceled() {
		t.Fatal("watch did not observe cancellation on the first poll after cancel")
	}
	if err := w.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("watch Err() = %v, want ErrCanceled", err)
	}
}

func TestWatchArmOfAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var w Watch
	w.Arm(ctx)
	defer w.Disarm()
	if !w.Canceled() {
		t.Error("watch armed on a dead context does not report canceled")
	}
}

func TestWatchRearm(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var w Watch
	w.Arm(ctx)
	cancel()
	w.Arm(context.Background())
	defer w.Disarm()
	if w.Canceled() {
		t.Error("re-armed watch still reports the previous context's cancellation")
	}
}
