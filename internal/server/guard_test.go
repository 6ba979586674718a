// Tests for the service's resilience surface: byte-stable answers to a
// numerically failing /v1/evaluate, the backlog-derived Retry-After hint
// and the cancellation errors on the request path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"supernpu/internal/faultinject"
)

// TestEvaluateNumericFailureIsByteStable posts one request whose simulation
// fails numerically five times: under a margin erosion of -1 every gate
// delay scales to 0, so the estimator produces a non-finite frequency. Each
// answer must be the same degraded 200, byte for byte — the failure is
// deterministic and memoised, so nothing about a repeat may differ.
func TestEvaluateNumericFailureIsByteStable(t *testing.T) {
	_, ts := newTestServer(t, Options{Fault: &faultinject.Model{MarginErosion: -1}})
	const req = `{"design":"SuperNPU","workload":"AlexNet","batch":1}`
	status, first, _ := post(t, ts.URL+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("evaluate = %d %s, want 200", status, first)
	}
	var got EvaluationResponse
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || !strings.Contains(got.DegradedReason, "non-finite") {
		t.Fatalf("want a degraded response naming the non-finite value, got %+v", got)
	}
	for i := 2; i <= 5; i++ {
		status, body, _ := post(t, ts.URL+"/v1/evaluate", req)
		if status != http.StatusOK || !bytes.Equal(body, first) {
			t.Fatalf("request %d = %d %s, want the first answer %s", i, status, body, first)
		}
	}
}

// TestRetryAfterDerivation pins the backlog → Retry-After mapping: at least
// one drain round, growing in whole rounds with queue depth, capped at a
// minute.
func TestRetryAfterDerivation(t *testing.T) {
	s := New(Options{MaxConcurrent: 4, Logger: quiet})
	cases := []struct {
		queued int64
		want   int
	}{
		{0, 1}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {400, 60}, {1 << 40, 60},
	}
	for _, c := range cases {
		if got := s.retryAfter(c.queued); got != c.want {
			t.Errorf("retryAfter(%d) = %d, want %d", c.queued, got, c.want)
		}
	}
	prev := 0
	for q := int64(0); q <= 64; q += 4 {
		got := s.retryAfter(q)
		if got < prev {
			t.Fatalf("retryAfter not monotone: retryAfter(%d) = %d < %d", q, got, prev)
		}
		prev = got
	}
}

// TestRetryAfterGrowsUnderLoad drives the limiter with a blocking handler —
// one request running, the queue full — and asserts the shed response's
// Retry-After reflects the real backlog (queued/slots drain rounds) instead
// of the historical constant 1.
func TestRetryAfterGrowsUnderLoad(t *testing.T) {
	const depth = 6
	s := New(Options{MaxConcurrent: 1, QueueDepth: depth, Logger: quiet})
	block := make(chan struct{})
	started := make(chan struct{}, depth+2)
	ts := httptest.NewServer(s.limit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
		w.WriteHeader(http.StatusOK)
	})))
	defer ts.Close()
	defer close(block)

	do := func() {
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}
	go do() // occupies the single work slot
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never started")
	}
	for i := 0; i < depth; i++ {
		go do()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d of %d", s.queued.Load(), depth)
		}
		time.Sleep(100 * time.Microsecond)
	}

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound request = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if want := depth; ra != want {
		t.Fatalf("Retry-After = %d with %d queued and 1 slot, want %d", ra, depth, want)
	}
}

// TestEvaluateCanceledRequestIs503 serves an evaluate request whose context
// is already dead — the shape a request takes when its client hangs up
// after limit admitted it. The cancellation must surface as 503 with the
// context's message, not as a degraded 200 (the design did nothing wrong)
// and not as a 4xx/5xx misclassification.
func TestEvaluateCanceledRequestIs503(t *testing.T) {
	s := New(Options{Logger: quiet})
	before := httpDegraded.Value()

	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate",
		strings.NewReader(`{"design":"SuperNPU","workload":"GoogLeNet","batch":3}`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleEvaluate(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled evaluate = %d %s, want 503", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "cancel") {
		t.Fatalf("503 body does not name the cancellation: %s", rec.Body)
	}
	if after := httpDegraded.Value(); after != before {
		t.Fatalf("cancellation counted as degraded (%d -> %d)", before, after)
	}
}
