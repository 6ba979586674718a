package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supernpu/internal/guard"
	"supernpu/internal/guard/leaktest"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		out, err := MapContext(context.Background(), 100, func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", w, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
	SetWorkers(0)
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		_, err := MapContext(context.Background(), 50, func(_ context.Context, i int) (int, error) {
			switch i {
			case 7:
				return 0, errA
			case 31:
				return 0, errors.New("b")
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want error of index 7", w, err)
		}
	}
	SetWorkers(0)
}

func TestMapEmpty(t *testing.T) {
	out, err := MapContext(context.Background(), 0, func(_ context.Context, i int) (int, error) { return 0, errors.New("never") })
	if err != nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	SetWorkers(workers)
	defer SetWorkers(0)

	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := MapContext(context.Background(), 64, func(_ context.Context, i int) (struct{}, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, worker bound is %d", p, workers)
	}
}

func TestForEachVisitsEveryIndex(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var seen [37]atomic.Int64
	if err := ForEachContext(context.Background(), len(seen), func(_ context.Context, i int) error {
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
}

func TestForEachError(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	want := fmt.Errorf("boom")
	if err := ForEachContext(context.Background(), 10, func(_ context.Context, i int) error {
		if i == 3 {
			return want
		}
		return nil
	}); !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestWorkersDefaultsToNumCPU(t *testing.T) {
	SetWorkers(0)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	SetWorkers(5)
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
	SetWorkers(-1)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() after negative set = %d, want NumCPU", got)
	}
	SetWorkers(0)
}

func TestMapRecoversPanickingJob(t *testing.T) {
	// Regression: a panic inside a worker goroutine used to kill the whole
	// process (the server's recovery middleware only guards the handler
	// goroutine). It must now surface as a *PanicError.
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		_, err := MapContext(context.Background(), 20, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				panic("sfq meltdown")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", w)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %T %v, want *PanicError", w, err, err)
		}
		if pe.Value != "sfq meltdown" {
			t.Fatalf("workers=%d: panic value = %v", w, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError carries no stack", w)
		}
		if pe.Error() != "panic: sfq meltdown" {
			t.Fatalf("workers=%d: error text %q not deterministic", w, pe.Error())
		}
	}
	SetWorkers(0)
}

func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("typed sentinel")
	SetWorkers(2)
	defer SetWorkers(0)
	_, err := MapContext(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic(sentinel)
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the sentinel across the panic boundary: %v", err)
	}
}

func TestMapFailsFast(t *testing.T) {
	// After index 0 errors, workers must stop claiming new indices. The
	// non-failing jobs sleep long enough that the failure flag is certainly
	// visible before any worker loops back for more work.
	const n = 10000
	SetWorkers(4)
	defer SetWorkers(0)
	var executed atomic.Int64
	boom := errors.New("boom")
	_, err := MapContext(context.Background(), n, func(_ context.Context, i int) (int, error) {
		executed.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(10 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if ex := executed.Load(); ex > n/10 {
		t.Fatalf("executed %d of %d jobs after an index-0 failure: not fail-fast", ex, n)
	}
}

func TestMapContextCancellationStopsScheduling(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		const n = 10000
		_, err := MapContext(ctx, n, func(ctx context.Context, i int) (int, error) {
			if executed.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", w, err)
		}
		if ex := executed.Load(); ex > n/10 {
			t.Fatalf("workers=%d: executed %d of %d jobs after cancel", w, ex, n)
		}
	}
	SetWorkers(0)
}

func TestMapContextCompletedRunIgnoresLateCancel(t *testing.T) {
	// A context cancelled only after every index has been claimed must not
	// turn a fully successful run into an error.
	SetWorkers(2)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := MapContext(ctx, 8, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 8 {
		t.Fatalf("got (%v, %v)", out, err)
	}
}

func TestForEachContextPropagatesCancel(t *testing.T) {
	SetWorkers(3)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachContext(ctx, 100, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapLocalOneLocalPerWorker(t *testing.T) {
	// Each worker must get exactly one local, built inside that worker, and
	// no two workers may share one.
	const workers = 4
	SetWorkers(workers)
	defer SetWorkers(0)
	var built atomic.Int64
	type local struct{ uses int }
	out, err := MapLocalContext(context.Background(), 200, func() *local {
		built.Add(1)
		return &local{}
	}, func(_ context.Context, l *local, i int) (int, error) {
		l.uses++ // races across workers would trip -race if locals were shared
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
	if b := built.Load(); b < 1 || b > workers {
		t.Fatalf("built %d locals for %d workers", b, workers)
	}
}

func TestMapLocalSerialSingleLocal(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	var built atomic.Int64
	if _, err := MapLocalContext(context.Background(), 50, func() int {
		built.Add(1)
		return 0
	}, func(_ context.Context, l int, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b != 1 {
		t.Fatalf("serial path built %d locals, want 1", b)
	}
}

func TestMapLocalReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		_, err := MapLocalContext(context.Background(), 50, func() struct{} { return struct{}{} },
			func(_ context.Context, l struct{}, i int) (int, error) {
				switch i {
				case 9:
					return 0, errA
				case 40:
					return 0, errors.New("b")
				}
				return i, nil
			})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want error of index 9", w, err)
		}
	}
	SetWorkers(0)
}

func TestForEachLocalVisitsEveryIndex(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var seen [41]atomic.Int64
	if err := ForEachLocalContext(context.Background(), len(seen), func() []byte {
		return make([]byte, 8) // scratch each worker reuses
	}, func(_ context.Context, buf []byte, i int) error {
		buf[0] = byte(i)
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
}

func TestMapLocalContextCancel(t *testing.T) {
	SetWorkers(3)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapLocalContext(ctx, 100, func() struct{} { return struct{}{} },
		func(ctx context.Context, l struct{}, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapLocalRecoversPanickingJob(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	_, err := MapLocalContext(context.Background(), 20, func() struct{} { return struct{}{} },
		func(_ context.Context, l struct{}, i int) (int, error) {
			if i == 5 {
				panic("local meltdown")
			}
			return i, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T %v, want *PanicError", err, err)
	}
	if pe.Value != "local meltdown" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

func TestCancellationErrorsCarryGuardTaxonomy(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		defer SetWorkers(0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := MapContext(ctx, 50, func(ctx context.Context, i int) (int, error) {
			return i, nil
		})
		if !errors.Is(err, guard.ErrCanceled) {
			t.Errorf("workers=%d: errors.Is(err, guard.ErrCanceled) = false for %v", w, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: wrap lost context.Canceled: %v", w, err)
		}
	}
}

func TestDeadlineErrorsCarryGuardTaxonomy(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := ForEachContext(ctx, 50, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, guard.ErrDeadlineExceeded) {
		t.Errorf("errors.Is(err, guard.ErrDeadlineExceeded) = false for %v", err)
	}
}

// A job that returns the raw context error (the usual shape when fn itself
// polls ctx) is lifted into the taxonomy on the way out of the pool.
func TestJobReturnedCtxErrGetsWrapped(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := MapContext(ctx, 10, func(ctx context.Context, i int) (int, error) {
		once.Do(cancel)
		return 0, ctx.Err()
	})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("raw ctx.Err() from a job not lifted: %v", err)
	}
}

func TestForEachLocalContextVisitsEveryIndex(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var visited [50]atomic.Bool
	err := ForEachLocalContext(context.Background(), 50, func() int { return 0 },
		func(ctx context.Context, local int, i int) error {
			visited[i].Store(true)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visited {
		if !visited[i].Load() {
			t.Fatalf("index %d never visited", i)
		}
	}
}

// The pool promises complete shutdown: after MapContext returns — success,
// error, or cancellation — no worker goroutine survives.
func TestPoolShutdownLeavesNoGoroutines(t *testing.T) {
	leaktest.Check(t)
	SetWorkers(8)
	defer SetWorkers(0)

	if _, err := MapContext(context.Background(), 64, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := MapContext(context.Background(), 64, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	}); err == nil {
		t.Fatal("expected error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapContext(ctx, 64, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}); err == nil {
		t.Fatal("expected cancellation error")
	}
}
