package guard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"supernpu/internal/obs"
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

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := NewBreaker(3, 4)
	div := fmt.Errorf("x: %w", ErrDiverged)
	for i := 0; i < 2; i++ {
		b.Record("d", div)
		if !b.Allow("d") {
			t.Fatalf("breaker open after %d failures, threshold 3", i+1)
		}
	}
	b.Record("d", div)
	if b.Allow("d") {
		t.Fatal("breaker still closed after 3 consecutive numeric failures")
	}
	if !b.Open("d") {
		t.Fatal("Open() = false on a tripped breaker")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(1, 3)
	b.Record("d", fmt.Errorf("x: %w", ErrNonFinite))
	// Denied, denied, probe — deterministic count-based cadence.
	got := []bool{b.Allow("d"), b.Allow("d"), b.Allow("d")}
	want := []bool{false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("open-breaker Allow cadence = %v, want %v", got, want)
		}
	}
	// A successful probe closes the breaker.
	b.Record("d", nil)
	if !b.Allow("d") || b.Open("d") {
		t.Fatal("breaker did not close after successful probe")
	}
}

func TestBreakerIgnoresTransientErrors(t *testing.T) {
	b := NewBreaker(1, 2)
	b.Record("d", fmt.Errorf("x: %w", ErrCanceled))
	b.Record("d", errors.New("plain failure"))
	if !b.Allow("d") {
		t.Fatal("breaker tripped by non-numeric errors")
	}
	// Consecutive-failure count is not reset by a transient error either:
	// two numeric failures around a cancellation still trip threshold 2.
	b2 := NewBreaker(2, 2)
	div := fmt.Errorf("x: %w", ErrDiverged)
	b2.Record("d", div)
	b2.Record("d", fmt.Errorf("x: %w", ErrCanceled))
	b2.Record("d", div)
	if b2.Allow("d") {
		t.Fatal("cancellation between numeric failures reset the breaker count")
	}
}

// TestBreakerClosedSuccessAllocatesNothing pins the serve path's common
// case: every successful evaluation records nil for its design, and once
// the key is known and closed that must not reach the metrics registry.
func TestBreakerClosedSuccessAllocatesNothing(t *testing.T) {
	b := NewBreaker(3, 8)
	b.Record("warm", nil)
	if allocs := testing.AllocsPerRun(100, func() { b.Record("warm", nil) }); allocs != 0 {
		t.Fatalf("Record(closed key, nil) = %.0f allocs/op, want 0", allocs)
	}
}

// TestBreakerStateGauge pins what /metrics shows per design after each
// kind of state change, so skipping unchanged writes stays invisible.
func TestBreakerStateGauge(t *testing.T) {
	b := NewBreaker(2, 1)
	div := fmt.Errorf("x: %w", ErrDiverged)
	b.Record("gauge-ok", nil)
	b.Record("gauge-ok", nil)
	b.Record("gauge-fail-ok", div)
	b.Record("gauge-fail-ok", nil)
	b.Record("gauge-open", div)
	b.Record("gauge-open", div)
	b.Record("gauge-closed", div)
	b.Record("gauge-closed", div)
	b.Record("gauge-closed", nil)
	b.Record("gauge-one-fail", div)

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `supernpu_guard_breaker_state{design="gauge-`); ok {
			key, val, _ := strings.Cut(rest, `"} `)
			got[key] = val
		}
	}
	want := map[string]string{"ok": "0", "fail-ok": "0", "open": "1", "closed": "0"}
	if len(got) != len(want) {
		t.Errorf("breaker gauge series = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("breaker gauge for gauge-%s = %q, want %q", k, got[k], v)
		}
	}
}

func TestBreakerKeysIndependent(t *testing.T) {
	b := NewBreaker(1, 2)
	b.Record("bad", fmt.Errorf("x: %w", ErrDiverged))
	if b.Allow("bad") {
		t.Fatal("tripped key still allowed")
	}
	if !b.Allow("good") {
		t.Fatal("untripped key denied")
	}
}
