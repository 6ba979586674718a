// Command supernpu-serve runs the HTTP evaluation service: single
// evaluations, estimator queries and design-space sweeps over the paper's
// models, served as JSON with bounded concurrency and backpressure.
//
// Usage:
//
//	supernpu-serve                      # listen on :8080
//	supernpu-serve -addr :9000 -queue 128 -timeout 10s
//	supernpu-serve -workers 4           # bound the simulation pool at 4
//
// Endpoints:
//
//	POST /v1/evaluate   {"design":"SuperNPU","workload":"ResNet50","batch":0}
//	POST /v1/estimate   {"design":"SuperNPU"} or {"config":{...}}
//	POST /v1/explore    {"sweep":"division","degrees":[4,16,64]}
//	GET  /v1/designs    the five evaluation design points
//	GET  /v1/workloads  the six evaluation CNNs
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text exposition of every obs instrument
//	                    (pool, queue, request and per-cache hit/miss series)
//	GET  /debug/pprof/  live profiling (net/http/pprof: profile, heap, trace, …)
//
// The startup log line names the pool width, queue depth, timeout and
// fault model. Past its -timeout (queue wait included; it must be positive)
// a request answers 503. The service sheds load with 429 + Retry-After once
// the work queue is full, and drains in-flight requests on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/server"

	// The JSIM solver registers its instrument family (transients, steps,
	// pulses) at init; linking it here keeps those series on /metrics even
	// though the serving path reaches jsim only through the facade.
	_ "supernpu/internal/jsim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation worker pool width (also the request concurrency bound)")
	queue := flag.Int("queue", 64, "bounded request queue depth; beyond it requests get 429")
	timeout := flag.Duration("timeout", 30*time.Second, "budget of each work request, queue wait included (must be positive)")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic SFQ fault model")
	icSpread := flag.Float64("ic-spread", 0, "junction critical-current spread injected into every simulation")
	pulseDrop := flag.Float64("pulse-drop", 0, "thermal pulse-drop probability per shift")
	bitFlip := flag.Float64("bit-flip", 0, "datapath bit-flip probability per MAC")
	erosion := flag.Float64("erosion", 0, "timing-margin erosion (fractional delay stretch)")
	simFail := flag.Float64("sim-fail", 0, "probability a simulation aborts entirely (exercises the degraded path)")
	flag.Parse()

	if *timeout <= 0 {
		fmt.Fprintf(os.Stderr, "supernpu-serve: -timeout must be positive, got %s\n", *timeout)
		os.Exit(2)
	}

	// Any non-zero rate arms the fault model (Model.Enabled); /v1/evaluate
	// degrades to the analytical roofline (200 + "degraded": true) when a
	// simulation aborts.
	fm := &faultinject.Model{
		Seed: *faultSeed, IcSpread: *icSpread, PulseDrop: *pulseDrop,
		BitFlip: *bitFlip, MarginErosion: *erosion, SimFail: *simFail,
	}
	if err := fm.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-serve:", err)
		os.Exit(2)
	}

	parallel.SetWorkers(*workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := server.New(server.Options{
		MaxConcurrent: parallel.Workers(),
		QueueDepth:    *queue,
		Timeout:       *timeout,
		Fault:         fm,
	})
	if err := s.ListenAndServe(ctx, *addr, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "supernpu-serve:", err)
		os.Exit(1)
	}
}
