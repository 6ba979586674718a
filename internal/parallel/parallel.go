// Package parallel is the repository's bounded worker pool: order-preserving
// MapContext/ForEachContext over index ranges, plus MapLocalContext/
// ForEachLocalContext with per-worker scratch, built on the standard
// library only.
//
// Every hot loop of the evaluation pipeline (figure regeneration, design-
// space sweeps, per-layer simulation, JSIM transients) fans out through this
// package, so a single knob — SetWorkers — switches the whole system between
// serial and parallel execution. Results are always assembled by index, and
// the error returned is always the one of the lowest failing index, so
// output is byte-identical regardless of the worker count.
//
// The pool is hardened for long-running and served workloads:
//
//   - a panicking job is recovered inside its worker goroutine and surfaces
//     as a *PanicError carrying the panic value and stack, instead of
//     killing the process (an http recovery middleware cannot reach a panic
//     on a different goroutine);
//   - scheduling fails fast: after the first error or panic, workers stop
//     claiming new indices, so a failed 10 000-point sweep does not run its
//     remaining points to completion first; and
//   - every entry point observes context cancellation between jobs, which
//     lets a checkpointed sweep stop cleanly on SIGINT/SIGTERM.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"supernpu/internal/guard"
	"supernpu/internal/obs"
)

// Pool instruments: batch and task counts are always-live counters; the
// queue-wait histogram (delay between a batch being submitted and each of
// its tasks being claimed by a worker) reads the clock only while
// observability is enabled. None of it feeds back into scheduling, so
// results stay byte-identical with instrumentation on or off.
var (
	poolRuns      = obs.Default.Counter("supernpu_pool_runs_total", "Map/ForEach batches submitted to the worker pool")
	poolTasks     = obs.Default.Counter("supernpu_pool_tasks_total", "tasks executed by the worker pool")
	poolPanics    = obs.Default.Counter("supernpu_pool_panics_total", "task panics recovered into *PanicError")
	poolQueueWait = obs.Default.Histogram("supernpu_pool_queue_wait_seconds", "delay between batch submission and task claim", obs.DurationEdges)
	poolBatch     = obs.Default.Histogram("supernpu_pool_batch_tasks", "tasks per submitted batch", obs.SizeEdges)
)

func init() {
	obs.Default.GaugeFunc("supernpu_pool_workers", "effective worker count of the pool", func() float64 {
		return float64(Workers())
	})
}

// workers holds the configured worker count; 0 means runtime.NumCPU().
var workers atomic.Int64

// SetWorkers sets the maximum number of concurrent workers used by the
// pool's entry points. n <= 0 resets to runtime.NumCPU(). n == 1 forces
// fully serial, in-order execution.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
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
	// Stack is the worker goroutine's stack at recovery time.
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

// call runs fn(ctx, local, i), converting a panic into a *PanicError.
func call[L, T any](ctx context.Context, fn func(ctx context.Context, local L, i int) (T, error), local L, i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			poolPanics.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, local, i)
}

// MapContext evaluates fn for every index in [0, n) using at most
// Workers() goroutines and returns the results in index order. If any call
// fails, MapContext returns the error of the lowest failing index and a nil
// slice. Scheduling is fail-fast: indices not yet claimed when the first
// error (or panic) occurs are never run; indices claimed before it always
// run to completion, which is what keeps the lowest-failing-index contract
// exact — indices are claimed in increasing order, so everything below the
// first failure has already been claimed.
//
// Between jobs, workers observe ctx and stop claiming new indices once it
// is cancelled. When the run is cut short by cancellation (and no job
// failed first), MapContext returns ctx's error lifted into the guard
// taxonomy, so callers at any distance classify it with
// errors.Is(err, guard.ErrCanceled) (or guard.ErrDeadlineExceeded).
func MapContext[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapLocalContext(ctx, n, func() struct{} { return struct{}{} },
		func(ctx context.Context, _ struct{}, i int) (T, error) {
			return fn(ctx, i)
		})
}

// ForEachLocalContext is ForEachContext with per-worker local state (see
// MapLocalContext).
func ForEachLocalContext[L any](ctx context.Context, n int, newLocal func() L, fn func(ctx context.Context, local L, i int) error) error {
	_, err := MapLocalContext(ctx, n, newLocal, func(ctx context.Context, local L, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, local, i)
	})
	return err
}

// MapLocalContext is MapContext with per-worker local state: newLocal runs
// once per worker and its value is handed to every fn call that worker
// executes. It is the hook for reusing expensive scratch (a jsim.Solver, a
// decode buffer) across the jobs of one worker without sharing it between
// workers — fn may mutate its local freely and must not stash it anywhere
// another goroutine reads. newLocal must not panic; a panic inside fn is
// recovered as usual. Locals are created lazily, one per worker goroutine
// actually started (the serial path creates exactly one). It is the engine
// under the other three entry points.
func MapLocalContext[L, T any](ctx context.Context, n int, newLocal func() L, fn func(ctx context.Context, local L, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	poolRuns.Inc()
	poolBatch.Observe(float64(n))
	var submitted time.Time
	if obs.Enabled() {
		submitted = time.Now()
	}
	w := Workers()
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w <= 1 {
		local := newLocal()
		for i := 0; i < n; i++ {
			if err := guard.CtxErr(ctx); err != nil {
				return nil, err
			}
			if !submitted.IsZero() {
				poolQueueWait.Observe(time.Since(submitted).Seconds())
			}
			poolTasks.Inc()
			v, err := call(ctx, fn, local, i)
			if err != nil {
				return nil, guard.WrapCancellation(err)
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			local := newLocal()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !submitted.IsZero() {
					poolQueueWait.Observe(time.Since(submitted).Seconds())
				}
				poolTasks.Inc()
				out[i], errs[i] = call(ctx, fn, local, i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, guard.WrapCancellation(err)
		}
	}
	if ctx.Err() != nil && int(next.Load()) < n {
		return nil, guard.CtxErr(ctx)
	}
	return out, nil
}

// ForEachContext is MapContext for jobs without a result: it returns the
// error of the lowest failing index, if any, with the same panic recovery,
// fail-fast scheduling and cancellation.
func ForEachContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	_, err := MapContext(ctx, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
