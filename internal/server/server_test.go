package server

import (
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

	status, body = get(t, ts.URL+"/debug/stats")
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil || status != http.StatusOK {
		t.Fatalf("stats = %d %s (%v)", status, body, err)
	}
	if stats.MaxConcurrent <= 0 || stats.QueueDepth <= 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}

	// Unknown routes and wrong methods are 404/405.
	if status, _ := get(t, ts.URL+"/v1/evaluate"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate = %d, want 405", status)
	}
	if status, _ := get(t, ts.URL+"/nope"); status != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", status)
	}
	// /metrics serves every instrument; there is no expvar mirror.
	if status, _ := get(t, ts.URL+"/debug/vars"); status != http.StatusNotFound {
		t.Fatalf("GET /debug/vars = %d, want 404", status)
	}
}

// TestBackpressure429 drives the limiter deterministically with a blocking
// inner handler: one request holds the work slot, one waits in the queue,
// and the next is shed with 429 + Retry-After at exactly the configured
// bound.
func TestBackpressure429(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 1, Timeout: -1, Logger: quiet})
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
