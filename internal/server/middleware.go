// Middleware of the evaluation service: the bounded-queue backpressure
// limiter with each work request's deadline, and the one outer wrapper that
// counts, recovers, times and logs every request.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"supernpu/internal/obs"
)

// Service instruments, served on GET /metrics with the rest of the obs
// registry. The gauges (httpRunning, httpQueued) move in both directions;
// the rest are monotonic counters. Test servers in one process share
// them, which only ever adds counts.
var (
	httpRequests = obs.Default.Counter("supernpu_http_requests_total", "requests seen by the service")
	httpRunning  = obs.Default.Gauge("supernpu_http_inflight", "requests holding a work slot")
	httpQueued   = obs.Default.Gauge("supernpu_http_queued", "requests waiting for a work slot")
	httpShed     = obs.Default.Counter("supernpu_http_shed_total", "requests shed with 429 by the backpressure limiter")
	httpPanics   = obs.Default.Counter("supernpu_http_panics_total", "handler panics recovered to 500")
	httpDegraded = obs.Default.Counter("supernpu_http_degraded_total", "evaluations served by the analytical fallback")
)

// requestSeconds holds the request-latency histogram series of every
// endpoint class classifyEndpoint returns; the outer wrapper observes into
// them. They are registered at package init, so a fresh server's first
// scrape lists each of them and a request looks up no registry entry.
var requestSeconds = func() map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram)
	for _, endpoint := range [...]string{"evaluate", "estimate", "explore", "designs", "workloads",
		"healthz", "metrics", "debug", "other"} {
		m[endpoint] = obs.Default.Histogram("supernpu_http_request_seconds",
			"request wall time by endpoint", obs.DurationEdges, obs.L("endpoint", endpoint))
	}
	return m
}()

// classifyEndpoint maps a request path onto a small fixed label set, so
// arbitrary client paths can never explode the metric's cardinality.
func classifyEndpoint(path string) string {
	switch path {
	case "/v1/evaluate", "/v1/estimate", "/v1/explore", "/v1/designs", "/v1/workloads":
		return strings.TrimPrefix(path, "/v1/")
	case "/healthz", "/metrics":
		return path[1:]
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "other"
}

// limit is the backpressure gate. It sets the work request's deadline
// before the request queues; at most MaxConcurrent requests hold a work
// slot, at most QueueDepth more wait for one, and everything beyond that is
// shed with 429 + Retry-After. The gauges are served on /metrics.
func (s *Server) limit(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
		defer cancel()
		admitted := true
		select {
		case s.sem <- struct{}{}:
			// A work slot was free; skip the queue entirely.
		default:
			// Reserve a queue slot first (Add-then-check keeps the bound
			// exact under concurrent arrivals), then wait for a work slot.
			if q := s.queued.Add(1); q > int64(s.opts.QueueDepth) {
				s.queued.Add(-1)
				httpShed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(q-1)))
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("queue full (%d running, %d queued); retry later", s.opts.MaxConcurrent, q-1))
				return
			}
			httpQueued.Inc()
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				admitted = false
			}
			s.queued.Add(-1)
			httpQueued.Dec()
		}
		if admitted {
			defer func() { <-s.sem }()
		}
		// A request that won its slot after its deadline answers 503 too: a
		// warm cache hit never polls the context.
		if err := ctx.Err(); err != nil {
			status, msg := modelError(err)
			writeError(w, status, msg)
			return
		}
		// The deadline bounds the body read too, so a client that stalls
		// mid-body cannot hold its slot; net/http lifts it at the body's
		// end. A bodyless request has nothing to bound, and net/http is
		// already reading ahead on its connection.
		if r.ContentLength != 0 {
			dl, _ := ctx.Deadline()
			_ = http.NewResponseController(w).SetReadDeadline(dl)
		}
		httpRunning.Inc()
		defer httpRunning.Dec()
		next(w, r.WithContext(ctx))
	}
}

// maxRetryAfter caps the backpressure hint: past a minute the client should
// treat the service as down and apply its own policy, not sit on our number.
const maxRetryAfter = 60

// retryAfter derives the Retry-After hint from the actual backlog instead of
// a constant: with queued requests ahead of the newcomer and MaxConcurrent
// work slots draining them, the backlog clears in roughly queued/slots drain
// rounds. The estimate is deliberately in whole rounds (ceiling) so a barely
// full queue still says at least 1, and it grows linearly as the backlog
// deepens — clients backing off proportionally spread their retries instead
// of stampeding back in lockstep one second later.
func (s *Server) retryAfter(queued int64) int {
	slots := int64(s.opts.MaxConcurrent) // at least 1 after withDefaults
	rounds := (queued + slots - 1) / slots
	if rounds < 1 {
		rounds = 1
	}
	if rounds > maxRetryAfter {
		rounds = maxRetryAfter
	}
	return int(rounds)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection (see limit).
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Handler returns the service's root handler: the mux behind one outer
// wrapper. It counts the request, turns a handler panic into a 500 instead
// of taking the connection (and the process's other requests) down, then
// observes the per-endpoint latency histogram and writes one log line
// (method, path, status, duration).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpRequests.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				httpPanics.Inc()
				s.opts.Logger.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(rec, http.StatusInternalServerError, "internal error")
			}
			if rec.status == 0 {
				rec.status = http.StatusOK // nothing written: net/http sends 200
			}
			elapsed := time.Since(start)
			requestSeconds[classifyEndpoint(r.URL.Path)].Observe(elapsed.Seconds())
			s.opts.Logger.Printf("server: %s %s %s %s", r.Method, r.URL.Path,
				strconv.Itoa(rec.status), elapsed.Round(time.Microsecond))
		}()
		s.mux.ServeHTTP(rec, r)
	})
}
