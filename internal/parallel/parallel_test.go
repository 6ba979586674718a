package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supernpu/internal/guard/leaktest"
)

// squares fills a presized slice by index, the pool's result idiom.
func squares(ctx context.Context, n int) ([]int, error) {
	out := make([]int, n)
	err := ForEachContext(ctx, n, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	return out, err
}

func TestMapPreservesOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		out, err := squares(context.Background(), 100)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
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
		err := ForEachContext(context.Background(), 50, func(_ context.Context, i int) error {
			switch i {
			case 7:
				return errA
			case 31:
				return errors.New("b")
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want error of index 7", w, err)
		}
	}
	SetWorkers(0)
}

func TestMapEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		if err := ForEachContext(context.Background(), n, func(_ context.Context, i int) error { return errors.New("never") }); err != nil {
			t.Fatalf("n=%d: got %v, want nil", n, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	SetWorkers(workers)
	defer SetWorkers(0)

	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	err := ForEachContext(context.Background(), 64, func(_ context.Context, i int) error {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		inFlight.Add(-1)
		return nil
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
		err := ForEachContext(context.Background(), 20, func(_ context.Context, i int) error {
			if i == 5 {
				panic("sfq meltdown")
			}
			return nil
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
	err := ForEachContext(context.Background(), 4, func(_ context.Context, i int) error {
		if i == 2 {
			panic(sentinel)
		}
		return nil
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
	err := ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if ex := executed.Load(); ex > n/10 {
		t.Fatalf("executed %d of %d jobs after an index-0 failure: not fail-fast", ex, n)
	}
}

func TestForEachCancellationStopsScheduling(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		const n = 10000
		err := ForEachContext(ctx, n, func(ctx context.Context, i int) error {
			if executed.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
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

func TestForEachCompletedRunIgnoresLateCancel(t *testing.T) {
	// A context cancelled only after every index has been claimed must not
	// turn a fully successful run into an error: the last index cancels.
	for _, w := range []int{1, 2} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		out := make([]int, 8)
		err := ForEachContext(ctx, len(out), func(_ context.Context, i int) error {
			if i == len(out)-1 {
				cancel()
			}
			out[i] = i * i
			return nil
		})
		cancel()
		if err != nil || out[7] != 49 {
			t.Fatalf("workers=%d: got (%v, %v)", w, out, err)
		}
	}
	SetWorkers(0)
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

// A run cut short by cancellation returns ctx.Err() itself, at either
// scheduling path.
func TestCanceledRunReturnsContextCanceled(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		defer SetWorkers(0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := ForEachContext(ctx, 50, func(ctx context.Context, i int) error { return nil })
		if err != context.Canceled {
			t.Errorf("workers=%d: got %v, want context.Canceled", w, err)
		}
	}
}

func TestExpiredRunReturnsDeadlineExceeded(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := ForEachContext(ctx, 50, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

// A job that returns the raw context error (the usual shape when fn itself
// polls ctx) comes out of the pool unchanged.
func TestJobContextErrorPassesThroughUnchanged(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	err := ForEachContext(ctx, 10, func(ctx context.Context, i int) error {
		once.Do(cancel)
		return ctx.Err()
	})
	if err != context.Canceled {
		t.Fatalf("job's ctx.Err() came out as %v, want context.Canceled unchanged", err)
	}
}

// The pool promises complete shutdown: after ForEachContext returns —
// success, error, or cancellation — no worker goroutine survives.
func TestPoolShutdownLeavesNoGoroutines(t *testing.T) {
	leaktest.Check(t)
	SetWorkers(8)
	defer SetWorkers(0)

	if _, err := squares(context.Background(), 64); err != nil {
		t.Fatal(err)
	}
	if err := ForEachContext(context.Background(), 64, func(_ context.Context, i int) error {
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	}); err == nil {
		t.Fatal("expected error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := squares(ctx, 64); err == nil {
		t.Fatal("expected cancellation error")
	}
}

// peakJobs counts how many of its jobs are in flight at once.
type peakJobs struct {
	inFlight, peak atomic.Int64
	mu             sync.Mutex
}

// job is one briefly sleeping job that records the peak.
func (p *peakJobs) job(context.Context, int) error {
	n := p.inFlight.Add(1)
	p.mu.Lock()
	if n > p.peak.Load() {
		p.peak.Store(n)
	}
	p.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	p.inFlight.Add(-1)
	return nil
}

// A fan-out nested inside a fan-out shares the outer one's budget: an 8×8
// nest at three workers runs at most three jobs at once. Pools that give
// each batch its own workers run nine (three outer workers, each with
// three inner ones).
func TestNestedFanOutSharesOneBudget(t *testing.T) {
	const workers = 3
	SetWorkers(workers)
	defer SetWorkers(0)
	var p peakJobs
	err := ForEachContext(context.Background(), 8, func(ctx context.Context, _ int) error {
		return ForEachContext(ctx, 8, p.job)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := p.peak.Load(); n > workers {
		t.Errorf("a nested fan-out ran %d jobs at once, worker bound is %d", n, workers)
	}
}

// Outside callers each run their own batch, and their helpers share the
// process's Workers()-1 slots: two concurrent callers run at most
// Workers()+1 jobs at once.
func TestConcurrentCallersShareOneBudget(t *testing.T) {
	const workers = 3
	SetWorkers(workers)
	defer SetWorkers(0)
	var p peakJobs
	start := make(chan struct{})
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			<-start
			errs <- ForEachContext(context.Background(), 4, func(ctx context.Context, _ int) error {
				return ForEachContext(ctx, 8, p.job)
			})
		}()
	}
	close(start)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := p.peak.Load(); n > workers+1 {
		t.Errorf("two callers ran %d jobs at once, want at most Workers()+1 = %d", n, workers+1)
	}
}

// onHelper reports whether the calling job runs on a helper goroutine
// rather than on the goroutine that called ForEachContext.
func onHelper() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*batch).help"))
}

// A job the caller runs itself panics on the caller's own goroutine; the
// panic still comes back as a *PanicError, at the index that panicked.
func TestCallerJobPanicIsPanicError(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var mu sync.Mutex
	panicked := -1
	err := ForEachContext(context.Background(), 32, func(_ context.Context, i int) error {
		if onHelper() {
			time.Sleep(time.Millisecond)
			return nil
		}
		mu.Lock()
		panicked = i
		mu.Unlock()
		panic(i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T %v, want *PanicError", err, err)
	}
	if pe.Value != panicked {
		t.Fatalf("panic value %v, want the caller's index %d", pe.Value, panicked)
	}
	if bytes.Contains(pe.Stack, []byte("(*batch).help")) {
		t.Fatalf("the caller's panic carries a helper's stack:\n%s", pe.Stack)
	}
}

// At one worker the jobs run in index order on the caller: no helper is
// started, here or anywhere in the process.
func TestSerialRunStartsNoHelper(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	next := 0
	err := ForEachContext(context.Background(), 16, func(ctx context.Context, i int) error {
		if onHelper() || helpers.Load() != 0 || i != next {
			return fmt.Errorf("job %d: on a helper %v, %d helpers running, want index %d on the caller",
				i, onHelper(), helpers.Load(), next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A flat batch with free slots runs Workers() jobs at once from its first
// claim: four jobs at four workers meet at a barrier that only a batch
// running all four together passes. A caller that started one helper per
// claim would run two here until the barrier timed out.
func TestFlatBatchRunsWorkersJobsAtOnce(t *testing.T) {
	const workers = 4
	SetWorkers(workers)
	defer SetWorkers(0)
	var arrived atomic.Int64
	all := make(chan struct{})
	err := ForEachContext(context.Background(), workers, func(_ context.Context, i int) error {
		if arrived.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("job %d: %d of %d jobs running after 5 s", i, arrived.Load(), workers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Nesting keeps the lowest-failing-index contract at both levels: the
// outer batch returns the error of its lowest failing job, which is the
// error of that job's lowest failing inner index.
func TestNestedFanOutReturnsLowestIndexError(t *testing.T) {
	fails := map[[2]int]bool{{2, 5}: true, {2, 3}: true, {5, 1}: true, {6, 0}: true}
	for _, w := range []int{1, 2, 3, 8} {
		SetWorkers(w)
		err := ForEachContext(context.Background(), 8, func(ctx context.Context, o int) error {
			return ForEachContext(ctx, 8, func(_ context.Context, i int) error {
				if fails[[2]int{o, i}] {
					return fmt.Errorf("job %d/%d", o, i)
				}
				time.Sleep(50 * time.Microsecond)
				return nil
			})
		})
		if err == nil || err.Error() != "job 2/3" {
			t.Errorf("workers=%d: got %v, want job 2/3", w, err)
		}
	}
	SetWorkers(0)
}

// BenchmarkForEachContext times the pool on jobs too small to amortise a
// goroutine: one flat batch of 64, and an 8×8 nest.
func BenchmarkForEachContext(b *testing.B) {
	out := make([]int, 64)
	tiny := func(_ context.Context, i int) error {
		out[i%len(out)] += i
		return nil
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ForEachContext(context.Background(), 64, tiny); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := ForEachContext(context.Background(), 8, func(ctx context.Context, o int) error {
				return ForEachContext(ctx, 8, func(ctx context.Context, i int) error {
					return tiny(ctx, o*8+i)
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
