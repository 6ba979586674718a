// The warm-request cost of the serve path: one /v1/evaluate whose
// simulation is a cache hit, served in-process through Handler() with a
// quiet logger, so what is measured is the HTTP layer around the hit.
package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const warmEvaluate = `{"design":"SuperNPU","workload":"ResNet50","batch":1}`

// serveWarm returns a function that posts warmEvaluate through h and fails
// tb unless it answers 200. Call it once to fill the caches.
func serveWarm(tb testing.TB, h http.Handler) func() {
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(warmEvaluate)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("evaluate = %d %s", rec.Code, rec.Body)
		}
	}
}

// warmEvaluateAllocs bounds one warm /v1/evaluate, request and recorder
// included. It reads exactly 46 (go1.24.0, amd64), and 50 under -race,
// where sync.Pool drops entries at random. Three of the 46 are the
// ErrNotSupported the recorder returns when limit sets the body-read
// deadline; a real connection sets it without allocating. Looking the
// latency histogram up in the registry per request costs 5 more (51), and
// a design table rebuilt per lookup 5 more again (56), past the budget.
const warmEvaluateAllocs = 53

// TestWarmEvaluateAllocs gates the allocations of one warm /v1/evaluate.
func TestWarmEvaluateAllocs(t *testing.T) {
	serve := serveWarm(t, New(Options{Logger: quiet}).Handler())
	serve()
	if got := testing.AllocsPerRun(200, serve); got > warmEvaluateAllocs {
		t.Fatalf("warm /v1/evaluate = %.0f allocs, want <= %d", got, warmEvaluateAllocs)
	}
}

// BenchmarkEvaluateWarm times one warm /v1/evaluate through Handler().
func BenchmarkEvaluateWarm(b *testing.B) {
	serve := serveWarm(b, New(Options{Logger: quiet}).Handler())
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
