package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"supernpu/internal/core"
	"supernpu/internal/guard/leaktest"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// quiet suppresses the per-request log in tests.
var quiet = log.New(io.Discard, "", 0)

// newTestServer returns a started httptest server over a fresh Server.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quiet
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status, response bytes and headers.
func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %q", status, body)
	}
}

func TestEvaluateMatchesDirectCall(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := post(t, ts.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"ResNet50","batch":1}`)
	if status != http.StatusOK {
		t.Fatalf("evaluate = %d %s", status, body)
	}
	var got EvaluationResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	d, err := core.DesignByName("SuperNPU")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.Evaluate(context.Background(), d, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := evaluationResponse(ev)
	if got != want {
		t.Fatalf("served evaluation diverges from direct call:\n got %+v\nwant %+v", got, want)
	}
}

func TestEvaluateCustomNetworkAndERSFQ(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"design":"ERSFQ-SuperNPU","batch":1,"network":{"name":"tiny",
		"layers":[{"name":"c1","kind":"conv","h":8,"w":8,"c":3,"r":3,"s":3,"m":8,"stride":1,"pad":1}]}}`
	status, b, _ := post(t, ts.URL+"/v1/evaluate", body)
	if status != http.StatusOK {
		t.Fatalf("custom evaluate = %d %s", status, b)
	}
	var got EvaluationResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Design != "ERSFQ-SuperNPU" || got.Network != "tiny" || got.Throughput <= 0 {
		t.Fatalf("unexpected evaluation: %+v", got)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr string
	}{
		{"empty", `{}`, 400, "design is required"},
		{"unknown design", `{"design":"nope","workload":"AlexNet"}`, 400, "unknown design"},
		{"unknown workload", `{"design":"TPU","workload":"nope"}`, 400, "unknown"},
		{"no workload", `{"design":"TPU"}`, 400, "one of workload or network"},
		{"both", `{"design":"TPU","workload":"AlexNet","network":{"name":"x","layers":[]}}`, 400, "mutually exclusive"},
		{"negative batch", `{"design":"TPU","workload":"AlexNet","batch":-1}`, 400, "batch"},
		{"unknown field", `{"design":"TPU","workload":"AlexNet","bogus":1}`, 400, "bogus"},
		{"trailing data", `{"design":"TPU","workload":"AlexNet"}{}`, 400, "trailing"},
		{"not json", `hello`, 400, "invalid JSON"},
		{"bad layer kind", `{"design":"TPU","network":{"name":"x","layers":[{"name":"l","kind":"bogus"}]}}`, 400, "unknown layer kind"},
		{"huge dims", `{"design":"TPU","network":{"name":"x","layers":[{"name":"l","kind":"conv","h":99999,"w":1,"c":1,"r":1,"s":1,"m":1}]}}`, 400, "out of"},
		{"invalid shape", `{"design":"SuperNPU","network":{"name":"x","layers":[{"name":"l","kind":"conv","h":2,"w":2,"c":1,"r":5,"s":5,"m":1}]}}`, 400, "empty output"},
		{"pool only", `{"design":"SuperNPU","batch":1,"network":{"name":"p","layers":[{"name":"p","kind":"pool","h":8,"w":8,"c":4,"r":2,"stride":2}]}}`, 400, "no compute layer"},
		{"pool only on TPU", `{"design":"TPU","batch":1,"network":{"name":"p","layers":[{"name":"p","kind":"pool","h":8,"w":8,"c":4,"r":2,"stride":2}]}}`, 400, "no compute layer"},
		// Every dimension is in bounds, but the layer is far beyond any
		// CNN: the whole-network weight limit must reject it up front.
		{"oversized layer", `{"design":"Resource opt.","batch":1,"network":{"name":"big","layers":[{"name":"c","kind":"conv","h":1,"w":1,"c":16384,"r":1024,"s":1024,"m":16384,"pad":512}]}}`, 400, "weights exceed the limit"},
		{"oversized layer on TPU", `{"design":"TPU","batch":1,"network":{"name":"big","layers":[{"name":"c","kind":"conv","h":1,"w":1,"c":16384,"r":1024,"s":1024,"m":16384,"pad":512}]}}`, 400, "weights exceed the limit"},
		{"too many MACs", `{"design":"TPU","batch":1,"network":{"name":"deep","layers":[{"name":"c","kind":"conv","h":4096,"w":4096,"c":512,"r":3,"s":3,"m":512,"pad":1}]}}`, 400, "MACs per input exceed the limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, ts.URL+"/v1/evaluate", tc.body)
			if status != tc.wantStatus || !strings.Contains(string(body), tc.wantSubstr) {
				t.Fatalf("got %d %s, want %d containing %q", status, body, tc.wantStatus, tc.wantSubstr)
			}
		})
	}
}

func TestEstimate(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := post(t, ts.URL+"/v1/estimate", `{"design":"SuperNPU"}`)
	if status != http.StatusOK {
		t.Fatalf("estimate = %d %s", status, body)
	}
	var got EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.FrequencyHz <= 0 || got.Area28nmM2 <= 0 || len(got.Units) == 0 {
		t.Fatalf("degenerate estimate: %+v", got)
	}

	// A full custom configuration round-trips through validation.
	custom := `{"config":{"name":"mini","arrayHeight":64,"arrayWidth":64,"registers":2,
		"ifmapBufBytes":1048576,"ifmapChunks":16,"outputBufBytes":1048576,"outputChunks":16,
		"integratedOutput":true,"weightBufBytes":16384}}`
	status, body, _ = post(t, ts.URL+"/v1/estimate", custom)
	if status != http.StatusOK {
		t.Fatalf("custom estimate = %d %s", status, body)
	}

	// The estimator rejects CMOS designs and inconsistent configs.
	for _, bad := range []string{
		`{"design":"TPU"}`,
		`{}`,
		`{"design":"SuperNPU","config":{"arrayHeight":1,"arrayWidth":1,"registers":1,"ifmapBufBytes":1,"outputBufBytes":1,"weightBufBytes":1}}`,
		`{"config":{"arrayHeight":0,"arrayWidth":64,"registers":1,"ifmapBufBytes":1048576,"outputBufBytes":1048576,"weightBufBytes":16384}}`,
	} {
		if status, body, _ := post(t, ts.URL+"/v1/estimate", bad); status != http.StatusBadRequest {
			t.Fatalf("estimate(%s) = %d %s, want 400", bad, status, body)
		}
	}
}

func TestExplore(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := post(t, ts.URL+"/v1/explore", `{"sweep":"division","degrees":[2,4]}`)
	if status != http.StatusOK {
		t.Fatalf("explore = %d %s", status, body)
	}
	var got ExploreResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	// ExploreDivision prepends the Baseline and Integration references.
	if got.Sweep != "division" || len(got.Points) != 4 {
		t.Fatalf("unexpected sweep: %+v", got)
	}
	for _, bad := range []string{
		`{"sweep":"bogus"}`,
		`{"sweep":"division"}`,
		`{"sweep":"division","degrees":[0]}`,
		`{"sweep":"registers","width":7,"registers":[1]}`,
		`{"sweep":"registers","width":64}`,
	} {
		if status, body, _ := post(t, ts.URL+"/v1/explore", bad); status != http.StatusBadRequest {
			t.Fatalf("explore(%s) = %d %s, want 400", bad, status, body)
		}
	}
}

// TestExploreRegistersTakesEveryFig21Width holds the service to the one
// width policy of the facade and the CLI: any Fig. 21 width, at its Fig. 21
// buffer capacity. Width 7, which is not a Fig. 21 point, stays a 400
// (TestExplore).
func TestExploreRegistersTakesEveryFig21Width(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := post(t, ts.URL+"/v1/explore", `{"sweep":"registers","width":32,"registers":[1,2]}`)
	if status != http.StatusOK {
		t.Fatalf("explore = %d %s, want 200", status, body)
	}
	var got ExploreResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 2 || got.Points[0].Label != "width 32 / 50 MB / 1 regs" {
		t.Fatalf("unexpected sweep: %+v", got)
	}
}

func TestListingsAndStats(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := get(t, ts.URL+"/v1/designs")
	if status != http.StatusOK || !strings.Contains(string(body), "SuperNPU") {
		t.Fatalf("designs = %d %s", status, body)
	}
	var designs []DesignResponse
	if err := json.Unmarshal(body, &designs); err != nil || len(designs) != 5 {
		t.Fatalf("want 5 designs, got %d (%v)", len(designs), err)
	}

	status, body = get(t, ts.URL+"/v1/workloads")
	var nets []WorkloadResponse
	if err := json.Unmarshal(body, &nets); err != nil || status != http.StatusOK || len(nets) != 6 {
		t.Fatalf("workloads = %d %s (%v)", status, body, err)
	}

	// Unknown routes and wrong methods are 404/405.
	if status, _ := get(t, ts.URL+"/v1/evaluate"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate = %d, want 405", status)
	}
	if status, _ := get(t, ts.URL+"/nope"); status != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", status)
	}
	// /metrics serves every instrument; there is no expvar or JSON mirror.
	for _, path := range []string{"/debug/vars", "/debug/stats"} {
		if status, _ := get(t, ts.URL+path); status != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, status)
		}
	}
}

// TestBackpressure429 drives the limiter deterministically with a blocking
// inner handler: one request holds the work slot, one waits in the queue,
// and the next is shed with 429 + Retry-After at exactly the configured
// bound.
func TestBackpressure429(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 1, Logger: quiet})
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	ts := httptest.NewServer(s.limit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
		w.WriteHeader(http.StatusOK)
	})))
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	do := func() {
		resp, err := http.Get(ts.URL)
		if err != nil {
			results <- result{0, err}
			return
		}
		resp.Body.Close()
		results <- result{resp.StatusCode, nil}
	}

	go do() // occupies the work slot
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never started")
	}
	go do() // waits in the queue
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full: the third request must be rejected immediately.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound request = %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body = %s", body)
	}

	// Releasing the slot lets both admitted requests finish with 200.
	close(block)
	for i := 0; i < 2; i++ {
		select {
		case res := <-results:
			if res.err != nil || res.status != http.StatusOK {
				t.Fatalf("admitted request = %d, err %v, want 200", res.status, res.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request never completed")
		}
	}
	if q := s.queued.Load(); q != 0 {
		t.Fatalf("queued gauge = %d after drain, want 0", q)
	}
}

// TestTimeout bounds a slow request with the per-request timeout.
func TestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{Timeout: time.Nanosecond})
	status, body, _ := post(t, ts.URL+"/v1/evaluate", `{"design":"SuperNPU","workload":"ResNet50"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d %s, want 503", status, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("timeout body = %s", body)
	}
}

// TestQueuedRequestTimesOut holds the one work slot and queues a request
// behind it. The request's own 50 ms budget, not its client's 2 s
// deadline, must answer it: 503 "timed out" well inside a second.
func TestQueuedRequestTimesOut(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, Timeout: 50 * time.Millisecond})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evaluate",
		strings.NewReader(`{"design":"SuperNPU","workload":"ResNet50","batch":1}`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("queued request got no answer in %s: %v", time.Since(start), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "timed out") || elapsed >= time.Second {
		t.Fatalf("queued request = %d %s after %s, want 503 \"timed out\" within 1s",
			resp.StatusCode, body, elapsed)
	}
	if q := s.queued.Load(); q != 0 {
		t.Fatalf("queued = %d after the waiter timed out, want 0", q)
	}
}

// TestStalledBodyFreesSlot sends a work request's headers and 10 of its
// 100 declared body bytes over a raw connection, then stalls. The
// request's 50 ms budget bounds the body read, so the request is answered
// well inside a second and the one work slot then serves the next request.
func TestStalledBodyFreesSlot(t *testing.T) {
	serveWarm(t, New(Options{Logger: quiet}).Handler())()
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, Timeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/evaluate HTTP/1.1\r\nHost: test\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"design\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("stalled request got no answer in %s: %v", time.Since(start), err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled request = %d, want 400", resp.StatusCode)
	}
	if n := len(s.sem); n != 0 {
		t.Fatalf("%d work slots held after the stalled request was answered, want 0", n)
	}
	status, body, _ := post(t, ts.URL+"/v1/evaluate", warmEvaluate)
	if elapsed := time.Since(start); status != http.StatusOK || elapsed >= time.Second {
		t.Fatalf("next request = %d %s after %s, want 200 within 1s", status, body, elapsed)
	}
}

// TestLimitAnswersDeadRequests drives limit with requests that are dead
// before they could run: a waiter whose client left answers 503 naming the
// cancellation, and a request that wins a free slot after its deadline
// answers 503 "timed out". Neither runs the handler.
func TestLimitAnswersDeadRequests(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Logger: quiet})
	ran := false
	h := s.limit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ran = true }))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	for _, tc := range []struct {
		name     string
		ctx      context.Context
		holdSlot bool
		want     string
	}{
		{"client left while queued", canceled, true, "cancel"},
		{"slot won after the deadline", expired, false, "timed out"},
	} {
		if tc.holdSlot {
			s.sem <- struct{}{}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", nil).WithContext(tc.ctx))
		if tc.holdSlot {
			<-s.sem
		}
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %d %s, want 503 containing %q", tc.name, rec.Code, rec.Body, tc.want)
		}
	}
	if ran {
		t.Fatal("limit ran the handler of a dead request")
	}
	if len(s.sem) != 0 || s.queued.Load() != 0 {
		t.Fatalf("limit leaked a slot (%d held, %d queued)", len(s.sem), s.queued.Load())
	}
}

// TestPanicIsRecoveredTimedAndLogged puts a panicking route behind the
// outer wrapper: the request answers 500 "internal error", bumps
// supernpu_http_panics_total by one, and is still timed and logged.
func TestPanicIsRecoveredTimedAndLogged(t *testing.T) {
	var logged bytes.Buffer
	s := New(Options{Logger: log.New(&logged, "", 0)})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	panics, timed := s.metrics.panics.Value(), requestSeconds("other").Count()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))

	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("panicking handler = %d %s, want 500 internal error", rec.Code, rec.Body)
	}
	if got := s.metrics.panics.Value() - panics; got != 1 {
		t.Errorf("supernpu_http_panics_total moved by %d, want 1", got)
	}
	if got := requestSeconds("other").Count() - timed; got != 1 {
		t.Errorf("latency histogram observed %d requests, want 1", got)
	}
	for _, want := range []string{"panic serving GET /boom: boom", "server: GET /boom 500 "} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log does not contain %q:\n%s", want, logged.String())
		}
	}
}

// TestGracefulDrain starts Serve on a real listener, parks a request in
// flight, cancels the serve context and verifies the request still completes
// with a full response before Serve returns.
func TestGracefulDrain(t *testing.T) {
	leaktest.Check(t)
	simcache.ClearAll()
	s := New(Options{MaxConcurrent: 2, QueueDepth: 8, Logger: quiet})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, 30*time.Second) }()
	url := "http://" + l.Addr().String()

	// A cold division sweep is the slowest single request we can make.
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/explore", "application/json",
			strings.NewReader(`{"sweep":"division","degrees":[2,3,4,5,6,7,8,12,16,24,32,48,64]}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b, err}
	}()

	// Wait for the request to hold a work slot, then pull the plug.
	base := time.Now()
	for s.metrics.running.Value() == 0 {
		if time.Since(base) > 5*time.Second {
			t.Fatal("request never started running")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request = %d %s, want 200", r.status, r.body)
	}
	var sweep ExploreResponse
	if err := json.Unmarshal(r.body, &sweep); err != nil || len(sweep.Points) != 15 {
		t.Fatalf("drained response truncated: %d points, err %v", len(sweep.Points), err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestServeClosesIdleConnections holds an idle keep-alive connection to
// the request budget: after one answered request, Serve closes a
// connection that sends nothing more once Timeout has passed. httptest
// servers bypass Serve, so the test listens itself.
func TestServeClosesIdleConnections(t *testing.T) {
	leaktest.Check(t)
	s := New(Options{Timeout: 50 * time.Millisecond, Logger: quiet})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v, want nil", err)
		}
	})

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d (%v), want 200", resp.StatusCode, err)
	}
	idle := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read = %v after %s, want EOF", err, time.Since(idle))
	}
	if d := time.Since(idle); d >= time.Second {
		t.Fatalf("idle connection closed after %s, want about 50ms", d)
	}
}

// TestCustomNetworksWithSeparatorNamesDoNotAlias replays a pair of custom
// networks that once shared a cache entry: the second has only the first
// one's second layer, under a name that spells out the first layer's
// fields joined by 0x1f. After the first request, the second must still
// get its own numbers, the ones it gets from a cold cache.
func TestCustomNetworksWithSeparatorNamesDoNotAlias(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	t.Cleanup(simcache.ClearAll)
	const first = `{"design":%q,"batch":1,"network":{"name":"N","layers":[` +
		`{"name":"x","kind":"conv","h":8,"w":8,"c":4,"r":3,"s":3,"m":8,"stride":1,"pad":1},` +
		`{"name":"y","kind":"conv","h":8,"w":8,"c":8,"r":3,"s":3,"m":8,"stride":1,"pad":1}]}}`
	const second = `{"design":%q,"batch":1,"network":{"name":"N\u001fx\u001f0\u001f8\u001f8\u001f4\u001f3\u001f3\u001f8\u001f1\u001f1","layers":[` +
		`{"name":"y","kind":"conv","h":8,"w":8,"c":8,"r":3,"s":3,"m":8,"stride":1,"pad":1}]}}`
	evaluate := func(body string) EvaluationResponse {
		t.Helper()
		status, b, _ := post(t, ts.URL+"/v1/evaluate", body)
		if status != http.StatusOK {
			t.Fatalf("evaluate = %d %s", status, b)
		}
		var got EvaluationResponse
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, design := range []string{"SuperNPU", "TPU"} {
		simcache.ClearAll()
		alone := evaluate(fmt.Sprintf(second, design))
		if alone.MACs != 36864 {
			t.Fatalf("%s: second network alone has %d MACs, want 36864", design, alone.MACs)
		}
		simcache.ClearAll()
		evaluate(fmt.Sprintf(first, design))
		if got := evaluate(fmt.Sprintf(second, design)); got != alone {
			t.Errorf("%s: second network after the first = %+v, want its own %+v", design, got, alone)
		}
	}
}
