// Tests of the resilience features: fault-injected serving, the graceful
// degradation of /v1/evaluate when the simulator faults, and SIGTERM-style
// drain with fault-injected work in flight.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"supernpu/internal/faultinject"
	"supernpu/internal/simcache"
)

// failAll is a fault model that aborts every simulation it touches.
func failAll() *faultinject.Model {
	return &faultinject.Model{Seed: 1, SimFail: 1}
}

// mild is a fault model that perturbs simulations without aborting them.
func mild() *faultinject.Model {
	return &faultinject.Model{Seed: 7, IcSpread: 0.03, PulseDrop: 1e-7, BitFlip: 1e-9, MarginErosion: 0.05}
}

func TestEvaluateDegradesToAnalyticalFallback(t *testing.T) {
	_, ts := newTestServer(t, Options{Fault: failAll()})
	before := httpDegraded.Value()
	status, body, _ := post(t, ts.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"AlexNet","batch":1}`)
	if status != http.StatusOK {
		t.Fatalf("faulted evaluate = %d %s, want 200", status, body)
	}
	var got EvaluationResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.DegradedReason == "" {
		t.Fatalf("response not marked degraded: %+v", got)
	}
	if !strings.Contains(got.DegradedReason, "injected margin violation") {
		t.Fatalf("degraded reason lost the fault cause: %q", got.DegradedReason)
	}
	if got.Throughput <= 0 || got.TimeS <= 0 || got.FrequencyHz <= 0 {
		t.Fatalf("analytical fallback degenerate: %+v", got)
	}
	if httpDegraded.Value() <= before {
		t.Fatal("degraded counter did not move")
	}

	// The degraded response is byte-stable: the fallback is deterministic
	// and the injected fault message is seed-keyed, not time-keyed.
	_, body2, _ := post(t, ts.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"AlexNet","batch":1}`)
	if !bytes.Equal(body, body2) {
		t.Fatalf("degraded response not byte-stable:\n%s\n%s", body, body2)
	}
}

func TestEvaluateDegradedBadInputStays400(t *testing.T) {
	// Even with every simulation failing, invalid input is still the
	// client's fault: no fallback, a plain 400.
	_, ts := newTestServer(t, Options{Fault: failAll()})
	status, body, _ := post(t, ts.URL+"/v1/evaluate", `{"design":"nope","workload":"AlexNet"}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown design") {
		t.Fatalf("bad input under faults = %d %s, want 400", status, body)
	}
}

func TestEvaluateFaultedCMOSStaysNominal(t *testing.T) {
	// Faults are an SFQ phenomenon; the TPU reference must answer
	// identically with and without a fault model installed.
	_, nominal := newTestServer(t, Options{})
	_, faulted := newTestServer(t, Options{Fault: failAll()})
	req := `{"design":"TPU","workload":"AlexNet","batch":1}`
	s1, b1, _ := post(t, nominal.URL+"/v1/evaluate", req)
	s2, b2, _ := post(t, faulted.URL+"/v1/evaluate", req)
	if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(b1, b2) {
		t.Fatalf("CMOS evaluation moved under SFQ faults: %d %s vs %d %s", s1, b1, s2, b2)
	}
}

func TestEvaluateMildFaultsServeWithoutDegrading(t *testing.T) {
	_, ts := newTestServer(t, Options{Fault: mild()})
	status, body, _ := post(t, ts.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"AlexNet","batch":1}`)
	if status != http.StatusOK {
		t.Fatalf("mildly faulted evaluate = %d %s", status, body)
	}
	var got EvaluationResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatalf("mild faults should simulate, not degrade: %+v", got)
	}
	// The perturbed operating point must actually differ from nominal.
	_, nominalTS := newTestServer(t, Options{})
	_, nb, _ := post(t, nominalTS.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"AlexNet","batch":1}`)
	var nom EvaluationResponse
	if err := json.Unmarshal(nb, &nom); err != nil {
		t.Fatal(err)
	}
	if got.FrequencyHz >= nom.FrequencyHz {
		t.Fatalf("margin erosion did not lower served frequency: %g >= %g", got.FrequencyHz, nom.FrequencyHz)
	}
}

// TestEvaluateFaultedUnderLoadNever500s hammers a fail-everything server with
// concurrent evaluations: every response must be a degraded 200 — no 500s, no
// crash, no torn JSON.
func TestEvaluateFaultedUnderLoadNever500s(t *testing.T) {
	_, ts := newTestServer(t, Options{Fault: failAll(), MaxConcurrent: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
				strings.NewReader(`{"design":"SuperNPU","workload":"AlexNet","batch":1}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status + " " + string(b)
				return
			}
			var got EvaluationResponse
			if err := json.Unmarshal(b, &got); err != nil || !got.Degraded {
				errs <- "not degraded JSON: " + string(b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("faulted request failed: %s", e)
	}
}

// TestGracefulDrainWithFaultInjectedSweep is the SIGTERM story under fault
// injection: a fault-injected exploration sweep is in flight when the serve
// context is cancelled (what the signal handler does); the sweep must still
// complete with a full 200 before Serve returns clean.
func TestGracefulDrainWithFaultInjectedSweep(t *testing.T) {
	simcache.ClearAll()
	s := New(Options{MaxConcurrent: 2, QueueDepth: 8, Logger: quiet, Fault: mild()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, 30*time.Second) }()
	url := "http://" + l.Addr().String()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/explore", "application/json",
			strings.NewReader(`{"sweep":"division","degrees":[2,3,4,6,8,16,32,64]}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b, err}
	}()

	base := time.Now()
	for httpRunning.Value() == 0 {
		if time.Since(base) > 5*time.Second {
			t.Fatal("sweep never started running")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel() // the SIGTERM path

	r := <-replies
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("fault-injected sweep did not drain: %d %s (%v)", r.status, r.body, r.err)
	}
	var sweep ExploreResponse
	if err := json.Unmarshal(r.body, &sweep); err != nil || len(sweep.Points) != 10 {
		t.Fatalf("drained sweep truncated: %d points, err %v", len(sweep.Points), err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestStartupLineNamesLimitsAndFaultModel pins the one place the service
// reports its static settings: the listening line carries the pool width,
// queue depth, timeout and fault model, with and without faults armed.
func TestStartupLineNamesLimitsAndFaultModel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fm := range []*faultinject.Model{nil, mild()} {
		var buf bytes.Buffer
		s := New(Options{MaxConcurrent: 3, QueueDepth: 17, Timeout: 4 * time.Second,
			Fault: fm, Logger: log.New(&buf, "", 0)})
		if err := s.ListenAndServe(ctx, "127.0.0.1:0", time.Second); err != nil {
			t.Fatal(err)
		}
		line, _, _ := strings.Cut(buf.String(), "\n")
		for _, want := range []string{"workers 3", "queue 17", "timeout 4s", fm.String()} {
			if !strings.Contains(line, want) {
				t.Errorf("startup line %q does not name %q", line, want)
			}
		}
	}
}
