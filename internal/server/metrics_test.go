package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"supernpu/internal/jsim"
	"supernpu/internal/sfq"
)

// promFamily is one parsed metric family of a /metrics scrape.
type promFamily struct {
	name    string
	kind    string
	samples int
}

var (
	helpRe     = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe     = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"` +
		`(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})? (.+)$`)
)

// parsePrometheus is a strict parser for the text exposition subset the
// registry emits: HELP then TYPE then samples per family, sample names
// matching the family (plus _bucket/_sum/_count for histograms), values
// parsing as floats (or +Inf in le labels). Any violation fails the test.
func parsePrometheus(t *testing.T, body string) map[string]promFamily {
	t.Helper()
	families := map[string]promFamily{}
	var cur *promFamily
	var sawHelp string
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		at := func(format string, args ...any) {
			t.Fatalf("line %d: %s\n  %q", i+1, fmt.Sprintf(format, args...), line)
		}
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if _, dup := families[m[1]]; dup {
				at("family %s declared twice", m[1])
			}
			sawHelp = m[1]
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if sawHelp != m[1] {
				at("TYPE for %s not directly after its HELP", m[1])
			}
			if cur != nil {
				families[cur.name] = *cur
			}
			cur = &promFamily{name: m[1], kind: m[2]}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			at("not a HELP, TYPE or sample line")
		}
		if cur == nil {
			at("sample before any TYPE declaration")
		}
		name, value := m[1], m[len(m)-1]
		switch cur.kind {
		case "histogram":
			if name != cur.name+"_bucket" && name != cur.name+"_sum" && name != cur.name+"_count" {
				at("histogram sample %s outside family %s", name, cur.name)
			}
		default:
			if name != cur.name {
				at("sample %s outside family %s", name, cur.name)
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			at("sample value %q does not parse: %v", value, err)
		}
		cur.samples++
	}
	if cur != nil {
		families[cur.name] = *cur
	}
	return families
}

// TestMetricsEndpoint scrapes GET /metrics after touching every
// instrumented layer (HTTP, pool, caches via an evaluation; jsim via a
// direct transient) and asserts the scrape parses strictly and covers the
// server, cache, pool and jsim instrument families. The service never
// links jsim; this test binary does, so the scrape shows its families.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Tick the jsim counters: no endpoint reaches the solver, so run one
	// small transient directly.
	var (
		solver jsim.Solver
		pd     jsim.PulseDetector
	)
	if err := solver.RunChain(context.Background(), jsim.StandardJTL(4),
		40*sfq.Picosecond, 0.05*sfq.Picosecond, &pd); err != nil {
		t.Fatal(err)
	}
	// Tick the HTTP/pool/cache instruments with one real evaluation.
	if status, body, _ := post(t, ts.URL+"/v1/evaluate",
		`{"design":"SuperNPU","workload":"AlexNet","batch":1}`); status != http.StatusOK {
		t.Fatalf("evaluate = %d %s", status, body)
	}

	if status, _, _ := post(t, ts.URL+"/metrics", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want %d", status, http.StatusMethodNotAllowed)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	families := parsePrometheus(t, string(raw))

	for _, want := range []struct {
		name string
		kind string
	}{
		{"supernpu_http_requests_total", "counter"},
		{"supernpu_http_inflight", "gauge"},
		{"supernpu_http_queued", "gauge"},
		{"supernpu_http_shed_total", "counter"},
		{"supernpu_http_panics_total", "counter"},
		{"supernpu_http_degraded_total", "counter"},
		{"supernpu_http_request_seconds", "histogram"},
		{"supernpu_cache_hits_total", "counter"},
		{"supernpu_cache_misses_total", "counter"},
		{"supernpu_cache_entries", "gauge"},
		{"supernpu_cache_inflight", "gauge"},
		{"supernpu_pool_tasks_total", "counter"},
		{"supernpu_pool_runs_total", "counter"},
		{"supernpu_pool_panics_total", "counter"},
		{"supernpu_pool_workers", "gauge"},
		{"supernpu_pool_queue_wait_seconds", "histogram"},
		{"supernpu_jsim_transients_total", "counter"},
		{"supernpu_jsim_steps_total", "counter"},
		{"supernpu_jsim_pulses_total", "counter"},
	} {
		f, ok := families[want.name]
		if !ok {
			t.Errorf("scrape missing family %s", want.name)
			continue
		}
		if f.kind != want.kind {
			t.Errorf("family %s is a %s, want %s", want.name, f.kind, want.kind)
		}
		if f.samples == 0 {
			t.Errorf("family %s has no samples", want.name)
		}
	}
}

// TestFirstScrapeListsEveryEndpoint holds the latency histogram to having
// a series for each of the nine endpoint classes from start-up: a fresh
// server's first scrape, before it has timed any request, lists them all.
func TestFirstScrapeListsEveryEndpoint(t *testing.T) {
	rec := httptest.NewRecorder()
	New(Options{Logger: quiet}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	if f := parsePrometheus(t, body)["supernpu_http_request_seconds"]; f.kind != "histogram" {
		t.Fatalf("first scrape has no supernpu_http_request_seconds histogram")
	}
	for _, endpoint := range []string{"evaluate", "estimate", "explore", "designs", "workloads",
		"healthz", "metrics", "debug", "other"} {
		if !strings.Contains(body, `supernpu_http_request_seconds_count{endpoint="`+endpoint+`"} `) {
			t.Errorf("first scrape lists no supernpu_http_request_seconds series for endpoint %q", endpoint)
		}
	}
}
