// Package parallel is the repository's bounded worker pool, built on the
// standard library only. It has one entry point, ForEachContext, which runs
// a job per index of a range.
//
// Every hot loop of the evaluation pipeline (figure regeneration, design-
// space sweeps, per-layer simulation, JSIM transients) fans out through this
// package, so a single knob — SetWorkers — switches the whole system between
// serial and parallel execution. Callers assemble results by index (each
// job writes its own slot of a presized slice), and the error returned is
// always the one of the lowest failing index, so output is byte-identical
// regardless of the worker count.
//
// The pool keeps no goroutines and no queue. The goroutine that calls
// ForEachContext runs jobs of its own batch, and helper goroutines join it
// only while one of the process's Workers()-1 helper slots is free. So
// fan-outs nested inside jobs (report → sweep point → workload → layer)
// share one budget: one caller's whole tree runs at most Workers() jobs at
// once, and a job that fans out again, once the slots are taken, runs its
// inner batch on its own goroutine.
//
// The pool is hardened for long-running and served workloads:
//
//   - a panicking job is recovered on the goroutine that ran it, the
//     caller's or a helper's, and surfaces as a *PanicError carrying the
//     panic value and stack, instead of killing the process (an http
//     recovery middleware cannot reach a panic on a different goroutine);
//   - scheduling fails fast: after the first error or panic in a batch,
//     no goroutine claims another of its indices, so a failed 10 000-point
//     sweep does not run its remaining points to completion first; and
//   - it observes context cancellation between jobs, which lets a sweep
//     stop cleanly on SIGINT/SIGTERM or an expired deadline.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"supernpu/internal/obs"
)

// Pool instruments: batch and task counts are counters; the queue-wait
// histogram records the delay between a batch being submitted and each of
// its tasks being claimed, by the caller or a helper; the workers gauge
// holds Workers(), set at init and by SetWorkers. None of it feeds back
// into scheduling, so results stay byte-identical with tracing on or off.
var (
	poolRuns      = obs.Default.Counter("supernpu_pool_runs_total", "ForEachContext batches submitted to the worker pool")
	poolTasks     = obs.Default.Counter("supernpu_pool_tasks_total", "tasks executed by the worker pool")
	poolPanics    = obs.Default.Counter("supernpu_pool_panics_total", "task panics recovered into *PanicError")
	poolQueueWait = obs.Default.Histogram("supernpu_pool_queue_wait_seconds", "delay between batch submission and task claim", obs.DurationEdges)
	poolBatch     = obs.Default.Histogram("supernpu_pool_batch_tasks", "tasks per submitted batch", obs.SizeEdges)
	poolWorkers   = obs.Default.Gauge("supernpu_pool_workers", "effective worker count of the pool")
)

func init() { poolWorkers.Set(int64(Workers())) }

// workers holds the configured worker count; 0 means runtime.NumCPU().
var workers atomic.Int64

// SetWorkers sets the pool's worker budget: the caller of a fan-out plus
// at most n-1 helper goroutines in the whole process. n <= 0 resets to
// runtime.NumCPU(). n == 1 forces fully serial, in-order execution on
// each caller.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
	poolWorkers.Set(int64(Workers()))
}

// Workers returns the effective worker count.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// PanicError is a job panic converted into an error. The Error text renders
// only the panic value — deterministic, so responses that embed it stay
// byte-stable — while Stack preserves the full worker stack for logs.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the goroutine that ran the job, at recovery
	// time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes a panic value that already was an error (panicking with a
// typed sentinel keeps errors.Is working across the goroutine boundary).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// call runs fn(ctx, i), converting a panic into a *PanicError.
func call(ctx context.Context, fn func(ctx context.Context, i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			poolPanics.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// helpers counts the helper goroutines running in the whole process. A
// batch starts a helper only while the count is below Workers()-1, so k
// goroutines that call ForEachContext from outside any job run at most
// k+Workers()-1 jobs at once between them, however deeply their fan-outs
// nest.
var helpers atomic.Int64

// reserveHelper takes one of the process's Workers()-1 helper slots, if one
// is free.
func reserveHelper() bool {
	limit := int64(Workers()) - 1
	for {
		cur := helpers.Load()
		if cur >= limit {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// batch is one ForEachContext call: its caller and the helpers it started
// claim indices from next until none is left, a job has failed or ctx is
// done.
type batch struct {
	ctx       context.Context
	fn        func(ctx context.Context, i int) error
	n         int
	submitted time.Time
	next      atomic.Int64
	failed    atomic.Bool
	wg        sync.WaitGroup // the helpers this batch started

	mu    sync.Mutex
	errAt int // lowest failing index, valid when err != nil
	err   error
}

// step claims and runs one index, and reports false when there was none
// to claim.
func (b *batch) step() bool {
	if b.failed.Load() || b.ctx.Err() != nil {
		return false
	}
	i := int(b.next.Add(1)) - 1
	if i >= b.n {
		return false
	}
	poolQueueWait.Observe(time.Since(b.submitted).Seconds())
	poolTasks.Inc()
	if err := call(b.ctx, b.fn, i); err != nil {
		b.mu.Lock()
		if b.err == nil || i < b.errAt {
			b.errAt, b.err = i, err
		}
		b.mu.Unlock()
		b.failed.Store(true)
	}
	return true
}

// help drains b on a helper goroutine, then frees its slot.
func (b *batch) help() {
	defer b.wg.Done()
	defer helpers.Add(-1)
	for b.step() {
	}
}

// ForEachContext runs fn for every index in [0, n). The calling goroutine
// claims and runs indices itself and starts at most min(Workers(), n)-1
// helper goroutines, each only while a process-wide helper slot is free
// (there are Workers()-1), so nested and concurrent fan-outs share one
// budget instead of multiplying it. A helper runs only this call's jobs
// and exits when none is left to claim; ForEachContext returns only after
// its helpers have, so no goroutine outlives the call. At Workers() == 1
// the jobs run in index order on the caller.
//
// Jobs return no value: a caller that needs results writes them into a
// slice it presized to n, each job at its own index, so the results come
// out in index order at any worker count.
//
// If any call fails, ForEachContext returns the error of the lowest failing
// index. Scheduling is fail-fast: indices not yet claimed when the first
// error (or panic) occurs are never run; indices claimed before it always
// run to completion, which is what keeps the lowest-failing-index contract
// exact — indices are claimed in increasing order, so everything below the
// first failure has already been claimed.
//
// Before each claim, the caller and the helpers poll ctx.Err() and stop
// claiming new indices once ctx is cancelled. When the run is cut short by
// cancellation (and no job failed first), ForEachContext returns ctx.Err()
// itself, so callers at any distance classify it with
// errors.Is(err, context.Canceled) (or context.DeadlineExceeded).
func ForEachContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	poolRuns.Inc()
	poolBatch.Observe(float64(n))
	b := &batch{ctx: ctx, fn: fn, n: n, submitted: time.Now()}
	// Before each of its claims the caller starts every helper it may and
	// the batch can use (no more than the indices its own claim leaves), so
	// a batch with free slots runs Workers() jobs from its first claim, and
	// a slot freed mid-batch is taken up at the caller's next claim.
	limit, started := min(Workers(), n)-1, 0
	for {
		for started < limit && started < n-1-int(b.next.Load()) && reserveHelper() {
			started++
			b.wg.Add(1)
			go b.help()
		}
		if !b.step() {
			break
		}
	}
	b.wg.Wait()
	if b.err != nil {
		return b.err
	}
	if err := ctx.Err(); err != nil && int(b.next.Load()) < n {
		return err
	}
	return nil
}
