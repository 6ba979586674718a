package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"supernpu/internal/core"
	"supernpu/internal/server"
	"supernpu/internal/simcache"
)

// The service's request bounds (internal/server/api.go).
const (
	boundLayers = 512
	boundDim    = 1 << 14
	boundBatch  = 1 << 16
)

// serveRequest is request i of the serve workload's warm phase.
func serveRequest(ws *workingSet, i int) input { return ws.input(ws.pick(i)) }

func TestRequestIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	a, b := newWorkingSet(7), newWorkingSet(7)
	ua, ub := newUniqueSet(7), newUniqueSet(7)
	const n = 300
	for i := n - 1; i >= 0; i-- { // reverse order: no hidden sequence state
		if !bytes.Equal(serveRequest(a, i).body, serveRequest(b, i).body) {
			t.Fatalf("serve request %d differs between two generators of one seed", i)
		}
		if !bytes.Equal(ua.request(i).body, ub.request(i).body) {
			t.Fatalf("serve-unique request %d differs between two generators of one seed", i)
		}
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(serveRequest(a, i).body, serveRequest(a, i).body) ||
			!bytes.Equal(ua.request(i).body, ua.request(i).body) || ua.sampled(i) != ub.sampled(i) {
			t.Fatalf("request %d is not reproducible", i)
		}
	}
}

func TestDifferentSeedsGiveDifferentRequests(t *testing.T) {
	stream := func(seed uint64) (serve, unique []byte) {
		ws, u := newWorkingSet(seed), newUniqueSet(seed)
		for i := 0; i < 200; i++ {
			serve = append(serve, serveRequest(ws, i).body...)
			unique = append(unique, u.request(i).body...)
		}
		return serve, unique
	}
	s1, u1 := stream(1)
	s2, u2 := stream(2)
	if bytes.Equal(s1, s2) {
		t.Error("seeds 1 and 2 give the same serve requests")
	}
	if bytes.Equal(u1, u2) {
		t.Error("seeds 1 and 2 give the same serve-unique requests")
	}
	if bytes.Equal(newWorkingSet(1).input(200).body, newWorkingSet(2).input(200).body) {
		t.Error("the working set's seeded entries do not depend on the seed")
	}
}

// checkBounds decodes a request body and checks it against the service's
// bounds on layers, dimensions and batch.
func checkBounds(t *testing.T, in input) {
	t.Helper()
	if in.path == "/v1/estimate" {
		var req server.EstimateRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			t.Fatal(err)
		}
		return
	}
	var req server.EvaluateRequest
	if err := json.Unmarshal(in.body, &req); err != nil {
		t.Fatal(err)
	}
	if req.Batch < 0 || req.Batch > boundBatch {
		t.Errorf("%s: batch %d out of bounds", in.body, req.Batch)
	}
	if req.Network == nil {
		return
	}
	if n := len(req.Network.Layers); n == 0 || n > boundLayers {
		t.Errorf("network %s has %d layers", req.Network.Name, n)
	}
	for _, l := range req.Network.Layers {
		for _, d := range []int{l.H, l.W, l.C, l.R, l.S, l.M, l.Stride, l.Pad} {
			if d < 0 || d > boundDim {
				t.Errorf("network %s layer %s: dimension %d out of bounds", req.Network.Name, l.Name, d)
			}
		}
	}
}

func TestRequestsStayInsideTheServerBounds(t *testing.T) {
	h := server.New(server.Options{Logger: discardLog}).Handler()
	send := func(in input) {
		checkBounds(t, in)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, in.path, bytes.NewReader(in.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %.120s: status %d: %s", in.path, in.body, rec.Code, rec.Body)
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		ws := newWorkingSet(seed)
		for j := 0; j < ws.size(); j++ {
			send(ws.input(j))
		}
		u := newUniqueSet(seed)
		for i := 0; i < 2000; i++ {
			in := u.request(i)
			if i < 200 {
				send(in)
			} else {
				checkBounds(t, in)
			}
		}
	}
	simcache.ClearAll()
}

// wholeSimKey is the key of the whole-simulation cache entry a request
// fills: the simulation key for an evaluation, the configuration key for an
// estimate.
func wholeSimKey(t *testing.T, in input) [32]byte {
	if in.path == "/v1/estimate" {
		return sha256.Sum256([]byte("estimate\x00" + simcache.ConfigKey(in.config)))
	}
	d, err := core.DesignByName(in.design)
	if err != nil {
		t.Fatal(err)
	}
	if d.Platform == core.SFQ {
		return sha256.Sum256([]byte(simcache.SimKey(d.SFQ, in.net, in.batch)))
	}
	return sha256.Sum256([]byte(simcache.Fingerprint(d.CMOS, simcache.NetworkKey(in.net), in.batch)))
}

func TestServeUniqueNeverRepeatsAWholeSimulationKey(t *testing.T) {
	u := newUniqueSet(3)
	seen := map[[32]byte]int{}
	n := 20 * uniquePerSecond // a 20-second run
	if testing.Short() {
		n = 5000
	}
	for i := 0; i < n; i++ {
		k := wholeSimKey(t, u.request(i))
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share a whole-simulation key", j, i)
		}
		seen[k] = i
	}
}

func TestServeWorkingSetHasAFixedSize(t *testing.T) {
	size := newWorkingSet(1).size()
	for _, seed := range []uint64{1, 2, 99} {
		ws := newWorkingSet(seed)
		if ws.size() != size {
			t.Fatalf("seed %d: working set of %d inputs, seed 1 has %d", seed, ws.size(), size)
		}
		entries := map[string]bool{}
		for j := 0; j < ws.size(); j++ {
			entries[string(ws.input(j).body)] = true
		}
		if len(entries) != size {
			t.Fatalf("seed %d: %d distinct inputs in a working set of %d", seed, len(entries), size)
		}
		touched := map[string]bool{}
		for i := 0; i < 30*size; i++ {
			b := string(serveRequest(ws, i).body)
			if !entries[b] {
				t.Fatalf("seed %d: request %d is outside the working set", seed, i)
			}
			touched[b] = true
		}
		if len(touched) != size {
			t.Errorf("seed %d: %d requests touched %d of %d inputs", seed, 30*size, len(touched), size)
		}
	}
}
