package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"supernpu/internal/simcache"
)

// drainDegrees is a division sweep wide enough that, with cold caches, a
// mid-run cancellation lands while points are still being computed.
var drainDegrees = []int{2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64}

// npusimMisses returns the npusim memo cache's miss count.
func npusimMisses() int64 {
	for _, s := range simcache.Snapshot() {
		if s.Name == "npusim" {
			return s.Misses
		}
	}
	return 0
}

// TestExploreCancelResumeByteIdentical cancels a cold division sweep once
// its first cycle simulation has started, then resumes it: a rerun on the
// memo caches the canceled run left behind must be byte-identical to a run
// from cold caches. A canceled computation must leave no entry that a
// later run could read.
func TestExploreCancelResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cold full-width division sweep")
	}
	simcache.ClearAll()
	ctx, cancel := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		// A fast machine may finish the whole sweep before the cancel
		// lands, which the test tolerates below.
		deadline := time.Now().Add(30 * time.Second)
		for npusimMisses() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err := ExploreDivision(ctx, drainDegrees, nil)
	<-watched
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep failed with something other than context.Canceled: %v", err)
	}
	t.Logf("canceled run: err=%v after %d npusim misses", err, npusimMisses())

	resumed, err := ExploreDivision(context.Background(), drainDegrees, nil)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	simcache.ClearAll()
	cold, err := ExploreDivision(context.Background(), drainDegrees, nil)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	resJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	if string(resJSON) != string(coldJSON) {
		t.Fatalf("resumed sweep diverges from a cold run:\nresumed %s\ncold    %s", resJSON, coldJSON)
	}
}
