package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/server"
	"supernpu/internal/simcache"
)

// Work per run of the serve workloads (see the repro.go note on rates).
const (
	// serveRoundsPerSecond rounds of one pass over the whole working set
	// from empty caches and serveWarmPerRound warm requests drawn from it.
	serveRoundsPerSecond = 4
	serveWarmPerRound    = 2000
	// uniquePerSecond serve-unique requests, sent in uniqueChunks closed
	// loops. No cache is cleared during a pass, so its final heap is the
	// service's own cumulative growth (about 265 MB at --seconds 20).
	// After each chunk, replayPerSecond/uniqueChunks replayed requests
	// cycle through the seeded sample so far, all cache hits.
	uniquePerSecond = 400
	uniqueChunks    = 20
	replayPerSecond = 8000
	// probeSample caps how many serve-unique requests the per-layer probes
	// replay through the model packages.
	probeSample = 64
)

// shutdownGrace bounds the drain when the benchmark stops its server.
const shutdownGrace = 5 * time.Second

// spanHeader carries the client span to the server handler in the traced
// run: "<op>/<parent span>/<request class>".
const spanHeader = "X-Perfbench-Span"

// clients is the number of client connections: one per CPU the Go runtime
// uses, the most a single-host caller would open.
func clients() int { return runtime.GOMAXPROCS(0) }

var discardLog = log.New(io.Discard, "", 0)

// service is the evaluation service under test, listening on loopback,
// and the client the benchmark drives it with.
type service struct {
	url    string
	client *http.Client
	stop   func() error
}

// startService starts the service and checks that it answers.
func startService(ctx context.Context, tr *tracer) (*service, error) {
	s, err := serveLoopback(ctx, tr)
	if err != nil {
		return nil, err
	}
	if err := s.health(ctx); err != nil {
		_ = s.stop() // the failed health check is the error to report
		return nil, err
	}
	return s, nil
}

// serveLoopback constructs the service, binds a loopback listener and
// serves on it. Untraced, it runs server.Serve exactly as supernpu-serve
// does; traced, it serves server.Handler() wrapped in a handler that
// records a server.Handler span per request.
func serveLoopback(ctx context.Context, tr *tracer) (*service, error) {
	srv := server.New(server.Options{Logger: discardLog})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	if tr == nil {
		go func() { errc <- srv.Serve(sctx, l, shutdownGrace) }()
	} else {
		hs := &http.Server{
			Handler:           tracedHandler(tr, srv.Handler()),
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          discardLog,
		}
		go func() { errc <- serveUntil(sctx, hs, l) }()
	}
	tp := &http.Transport{
		MaxIdleConnsPerHost: clients(),
		MaxConnsPerHost:     clients(),
		DisableCompression:  true,
	}
	s := &service{url: "http://" + l.Addr().String(), client: &http.Client{Transport: tp}}
	s.stop = func() error {
		cancel()
		err := <-errc
		tp.CloseIdleConnections()
		return err
	}
	return s, nil
}

// serveUntil is server.Serve's accept-and-drain loop for the traced
// handler.
func serveUntil(ctx context.Context, hs *http.Server, l net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int64
		var class string
		if parts := strings.SplitN(r.Header.Get(spanHeader), "/", 3); len(parts) == 3 {
			op, _ = strconv.ParseInt(parts[0], 10, 64)
			parent, _ = strconv.ParseInt(parts[1], 10, 64)
			class = parts[2]
		}
		sp := tr.begin("server.Handler", class, op, parent)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// health is the first round trip: the listener accepts and the service
// answers. It is not part of set-up: it is the check before the first
// timed request.
func (s *service) health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// do sends one request and returns the response body, the client-side
// latency, and whether the service answered 200.
func (s *service) do(ctx context.Context, tr *tracer, in input) ([]byte, time.Duration, bool) {
	op := tr.newOp()
	sp := tr.begin("client.request", in.class, op, 0)
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+in.path, bytes.NewReader(in.body))
	if err != nil {
		return nil, 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d/%s", op, sp.id(), in.class))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	return body, d, err == nil && resp.StatusCode == http.StatusOK
}

// closedLoop runs fn for every i in [0, n) from clients() goroutines; each
// client sends its next request only after the reply to its previous one,
// as scripts and sweep drivers waiting on each answer do.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// outcomes collects per-request results of one closed loop by index, so
// clients write without locking.
type outcomes struct {
	lat []time.Duration
	ok  []bool
}

func newOutcomes(n int) *outcomes {
	return &outcomes{lat: make([]time.Duration, n), ok: make([]bool, n)}
}

func (p *pass) recordAll(samples *[]float64, o *outcomes) {
	for i := range o.lat {
		p.record(samples, o.lat[i], o.ok[i])
	}
}

// The serve set-ups build the workload's generator (discarded: requests
// are generated lazily during the run) and start the service.
func setupServe(ctx context.Context, o options) (func() error, error) {
	newWorkingSet(o.seed)
	return setupService(ctx)
}

func setupServeUnique(ctx context.Context, o options) (func() error, error) {
	newUniqueSet(o.seed)
	return setupService(ctx)
}

// setupService constructs the service and binds its listener; the release
// checks that it answers and stops it.
func setupService(ctx context.Context) (func() error, error) {
	svc, err := serveLoopback(ctx, nil)
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := svc.health(ctx); err != nil {
			_ = svc.stop() // the failed health check is the error to report
			return err
		}
		return svc.stop()
	}, nil
}

// runServe drives the bounded working set in rounds. Each round's cold
// pass requests every working-set input once from empty caches; the round's
// warm phase then draws seeded requests from the working set, all cache
// hits. The first pass records every response, and every later response
// must equal the one recorded for its input.
func runServe(ctx context.Context, o options, tr *tracer) (*pass, error) {
	ws := newWorkingSet(o.seed)
	svc, err := startService(ctx, tr)
	if err != nil {
		return nil, err
	}
	n := ws.size()
	inputs := make([]input, n)
	for j := range inputs {
		inputs[j] = ws.input(j)
	}
	p := &pass{probe: probeFromInputs(inputs)}
	m := startMeter()
	bodies := make([][]byte, n)
	for r := 0; r < perSecond(o, serveRoundsPerSecond); r++ {
		m.clearAll()
		fill := newOutcomes(n)
		closedLoop(n, func(j int) {
			body, d, ok := svc.do(ctx, tr, inputs[j])
			if ok && r == 0 {
				bodies[j] = body
			}
			fill.lat[j], fill.ok[j] = d, ok && bytes.Equal(body, bodies[j])
		})
		p.recordAll(&p.cold, fill)
		out := newOutcomes(serveWarmPerRound)
		a0, start := allocatedBytes(), time.Now()
		closedLoop(serveWarmPerRound, func(k int) {
			j := ws.pick(r*serveWarmPerRound + k)
			body, d, ok := svc.do(ctx, tr, inputs[j])
			out.lat[k], out.ok[k] = d, ok && bytes.Equal(body, bodies[j])
		})
		p.primary(allocatedBytes()-a0, serveWarmPerRound, time.Since(start))
		p.recordAll(&p.warm, out)
	}
	p.meter = m.stop()
	p.digest = digest(bodies)
	if err := svc.stop(); err != nil {
		return nil, err
	}
	bodies = nil // the benchmark's response copies are not the program's heap
	p.heapLive = liveHeapBytes()
	return p, nil
}

// runServeUnique sends requests that are each new to the service, clearing
// no cache, so the memo caches grow through the whole pass. Each chunk of
// requests is generated before it is timed, so the generator's work stays
// out of the figures. After each chunk it replays the seeded sample of the
// requests sent so far, now cache hits, and requires every response to be
// identical to the first; interleaving the two spreads both over the run.
func runServeUnique(ctx context.Context, o options, tr *tracer) (*pass, error) {
	u := newUniqueSet(o.seed)
	svc, err := startService(ctx, tr)
	if err != nil {
		return nil, err
	}
	probe := make([]input, probeSample)
	for i := range probe {
		probe[i] = u.request(i)
	}
	p := &pass{probe: probeFromInputs(probe)}
	m := startMeter()
	n := perSecond(o, uniquePerSecond)
	replays := perSecond(o, replayPerSecond) / uniqueChunks
	// sample holds each sampled request and the hash of its first body.
	type sampled struct {
		in  input
		sum [sha256.Size]byte
	}
	var sample []sampled
	for c := 0; c < uniqueChunks; c++ {
		lo := c * n / uniqueChunks
		chunk := make([]input, (c+1)*n/uniqueChunks-lo)
		for i := range chunk {
			chunk[i] = u.request(lo + i)
		}
		sums := make([][sha256.Size]byte, len(chunk))
		out := newOutcomes(len(chunk))
		a0, start := allocatedBytes(), time.Now()
		closedLoop(len(chunk), func(i int) {
			body, d, ok := svc.do(ctx, tr, chunk[i])
			sums[i] = sha256.Sum256(body)
			out.lat[i], out.ok[i] = d, ok
		})
		p.primary(allocatedBytes()-a0, len(chunk), time.Since(start))
		p.recordAll(&p.cold, out)
		for i := range chunk {
			if u.sampled(lo+i) && out.ok[i] {
				sample = append(sample, sampled{chunk[i], sums[i]})
			}
		}
		if len(sample) == 0 {
			continue
		}
		replay := newOutcomes(replays)
		closedLoop(replays, func(k int) {
			s := sample[k%len(sample)]
			body, d, ok := svc.do(ctx, tr, s.in)
			replay.lat[k], replay.ok[k] = d, ok && sha256.Sum256(body) == s.sum
		})
		p.recordAll(&p.warm, replay)
	}
	p.meter = m.stop()
	h := sha256.New()
	for _, s := range sample {
		h.Write(s.sum[:])
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	if err := svc.stop(); err != nil {
		return nil, err
	}
	sample = nil // the benchmark's own copies are not the program's heap
	p.heapLive = liveHeapBytes()
	return p, nil
}

// digest hashes the recorded response bodies in index order.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// probeFromInputs turns generated requests into per-layer probe inputs:
// every evaluation, and every SFQ configuration the requests estimate or
// evaluate on.
func probeFromInputs(ins []input) probeInputs {
	var in probeInputs
	seen := map[string]bool{}
	addConfig := func(c arch.Config) {
		if k := simcache.ConfigKey(c); !seen[k] {
			seen[k] = true
			in.configs = append(in.configs, c)
		}
	}
	for _, r := range ins {
		if r.class == classEstimate {
			addConfig(r.config)
			continue
		}
		d, err := core.DesignByName(r.design)
		if err != nil {
			panic(err) // generated design names always resolve
		}
		in.evals = append(in.evals, evalInput{design: d, net: r.net, batch: r.batch})
		if d.Platform == core.SFQ {
			addConfig(d.SFQ)
		}
	}
	return in
}
