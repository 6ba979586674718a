// Package server is the online face of the reproduction: an HTTP evaluation
// service over the paper's simulators and estimator.
//
// The batch harness (cmd/supernpu-repro) regenerates exhibits offline; this
// package serves the same models as JSON endpoints — single evaluations,
// estimator queries and design-space sweeps — under production discipline:
//
//   - identical in-flight requests coalesce onto one computation through the
//     simcache singleflight path (sync.Once per content key), so a thundering
//     herd of duplicate queries costs one simulation;
//   - concurrency is bounded by a semaphore sized to the internal/parallel
//     worker count, and waiting requests queue up to a configured depth —
//     beyond it the service sheds load with 429 + Retry-After instead of
//     growing goroutines without bound;
//   - every work request has one deadline, set before it queues, which
//     bounds its body read and which the models' cancellation checkpoints
//     obey; the whole service drains in-flight requests on SIGINT/SIGTERM
//     via http.Server.Shutdown;
//   - load and cache instruments live in the internal/obs registry, served
//     in Prometheus text format on GET /metrics; the configured limits and
//     fault model are printed once, on the startup log line.
//
// Responses are byte-identical to serial, direct calls into the facade: the
// models are deterministic pure functions, results are assembled in request
// order, and no map iteration reaches an encoder.
package server

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
)

// Options configures a Server. The zero value of any field selects its
// default.
type Options struct {
	// MaxConcurrent bounds the number of requests doing simulation work at
	// once. Default: parallel.Workers() (the sweep-engine pool width).
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for a work
	// slot; one more is rejected with 429. Default: 64.
	QueueDepth int
	// Timeout is the wall-clock budget of a work request, queue wait
	// included, and how long Serve keeps an idle keep-alive connection
	// open between requests. Default (any value <= 0): 30s.
	Timeout time.Duration
	// Logger receives one line per request. Default: log.Default().
	Logger *log.Logger
	// Fault, when non-nil and enabled, injects the seeded SFQ fault model
	// into every simulation the service runs — evaluations and sweeps alike.
	// A simulation aborted by an injected fault does not 500: /v1/evaluate
	// degrades to the analytical roofline estimate with "degraded": true.
	Fault *faultinject.Model
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = parallel.Workers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// Server is the evaluation service. Construct with New; it is ready to
// serve via Handler or Serve.
type Server struct {
	opts Options
	mux  *http.ServeMux
	// sem holds one token per concurrently running work request; queued
	// tracks requests waiting for a token (see limit in middleware.go).
	// queued is per-server so the backpressure bound is exact even with
	// several servers in one process; the obs gauges are global.
	sem     chan struct{}
	queued  atomic.Int64
	metrics *metrics
}

// New returns a Server with the given options.
func New(opts Options) *Server {
	s := &Server{opts: opts.withDefaults()}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	s.metrics = globalMetrics
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// routes wires the endpoint table. Work endpoints (those that may simulate)
// pass through the backpressure limiter, which also sets their deadline;
// introspection endpoints stay always-on so health checks and dashboards
// keep answering under full load.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/evaluate", s.limit(s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/estimate", s.limit(s.handleEstimate))
	s.mux.HandleFunc("POST /v1/explore", s.limit(s.handleExplore))
	s.mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Live profiling endpoints (net/http/pprof) on the always-on side of the
	// mux, so a saturated service can still be profiled: perf work should
	// start from a profile, not a guess.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Serve accepts connections on l until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests run to
// completion (bounded by grace), and Serve returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       s.opts.Timeout,
		ErrorLog:          s.opts.Logger,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.opts.Logger.Printf("server: draining in-flight requests (grace %s)", grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.opts.Logger.Printf("server: listening on %s (workers %d, queue %d, timeout %s, fault model: %s)",
		l.Addr(), s.opts.MaxConcurrent, s.opts.QueueDepth, s.opts.Timeout, s.opts.Fault)
	return s.Serve(ctx, l, grace)
}
