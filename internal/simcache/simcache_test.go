package simcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/guard"
	"supernpu/internal/workload"
)

func TestConfigKeyDistinguishesEveryField(t *testing.T) {
	base := arch.SuperNPU()
	mutations := []func(*arch.Config){
		func(c *arch.Config) { c.Name = "other" },
		func(c *arch.Config) { c.ArrayHeight++ },
		func(c *arch.Config) { c.ArrayWidth++ },
		func(c *arch.Config) { c.Registers++ },
		func(c *arch.Config) { c.IfmapBufBytes++ },
		func(c *arch.Config) { c.IfmapChunks++ },
		func(c *arch.Config) { c.OutputBufBytes++ },
		func(c *arch.Config) { c.OutputChunks++ },
		func(c *arch.Config) { c.IntegratedOutput = !c.IntegratedOutput },
		func(c *arch.Config) { c.PsumBufBytes++ },
		func(c *arch.Config) { c.WeightBufBytes++ },
		func(c *arch.Config) { c.Tech++ },
		func(c *arch.Config) { c.MemoryBandwidth *= 2 },
	}
	ref := ConfigKey(base)
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if ConfigKey(c) == ref {
			t.Errorf("mutation %d: distinct configs share a key", i)
		}
	}
}

func TestNetworkKeyDistinguishesLayersNotJustNames(t *testing.T) {
	a := workload.Network{Name: "net", Layers: []workload.Layer{
		{Name: "l", Kind: workload.Conv, H: 8, W: 8, C: 3, R: 3, S: 3, M: 16, Stride: 1, Pad: 1},
	}}
	b := a
	b.Layers = []workload.Layer{a.Layers[0]}
	b.Layers[0].M = 32
	if NetworkKey(a) == NetworkKey(b) {
		t.Fatal("networks with the same name but different layers share a key")
	}
	if NetworkKey(a) != NetworkKey(workload.Network{Name: a.Name, Layers: a.Layers}) {
		t.Fatal("identical networks produce different keys")
	}
}

func TestSimKeySeparatesBatchFromShape(t *testing.T) {
	cfg := arch.Baseline()
	net, err := workload.ByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	if SimKey(cfg, net, 1) == SimKey(cfg, net, 2) {
		t.Fatal("batches 1 and 2 share a key")
	}
	other := cfg
	other.Registers++
	if SimKey(cfg, net, 1) == SimKey(other, net, 1) {
		t.Fatal("distinct configs share a simulation key")
	}
}

func TestGetOrComputeMemoises(t *testing.T) {
	c := New[int]()
	calls := 0
	for i := 0; i < 5; i++ {
		v, err := c.GetOrCompute("k", func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("got (%d, %v)", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	hits, misses := c.Counters()
	if hits != 4 || misses != 1 {
		t.Fatalf("counters = (%d hits, %d misses), want (4, 1)", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestGetOrComputeMemoisesErrors(t *testing.T) {
	c := New[int]()
	want := errors.New("deterministic failure")
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrCompute("bad", func() (int, error) { calls++; return 0, want }); !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("Get returned ok for an errored entry")
	}
}

func TestConcurrentGetOrComputeRunsOnce(t *testing.T) {
	c := New[int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute("shared", func() (int, error) {
				calls.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got (%d, %v)", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", n)
	}
	hits, misses := c.Counters()
	if hits+misses != 32 || misses != 1 {
		t.Fatalf("counters = (%d hits, %d misses), want 31+1", hits, misses)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[int]()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := Fingerprint("key", i)
				v, err := c.GetOrCompute(key, func() (int, error) { return i, nil })
				if err != nil || v != i {
					t.Errorf("key %d: got (%d, %v)", i, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 50 {
		t.Fatalf("Len = %d, want 50", c.Len())
	}
}

func TestClearResetsEntriesAndCounters(t *testing.T) {
	c := New[string]()
	c.GetOrCompute("a", func() (string, error) { return "x", nil })
	c.GetOrCompute("a", func() (string, error) { return "x", nil })
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	if h, m := c.Counters(); h != 0 || m != 0 {
		t.Fatalf("counters after Clear = (%d, %d)", h, m)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived Clear")
	}
}

func TestRegistrySnapshotAndClearAll(t *testing.T) {
	c := New[int]()
	Register("test-cache", c)
	c.GetOrCompute("k", func() (int, error) { return 1, nil })
	c.GetOrCompute("k", func() (int, error) { return 1, nil })

	var found *Stats
	for _, s := range Snapshot() {
		if s.Name == "test-cache" {
			found = &s
			break
		}
	}
	if found == nil {
		t.Fatal("registered cache missing from snapshot")
	}
	if found.Hits != 1 || found.Misses != 1 || found.Entries != 1 {
		t.Fatalf("snapshot = %+v, want 1 hit, 1 miss, 1 entry", found)
	}
	if got := found.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", got)
	}

	ClearAll()
	if c.Len() != 0 {
		t.Fatal("ClearAll did not clear the registered cache")
	}
}

// Transient failures (cancellations and deadline expiries) are
// properties of the attempt, not the inputs: memoising one would poison
// the key for every later caller. The entry is evicted instead, so a retry
// recomputes and can cache the real result.
func TestTransientErrorsAreNotMemoised(t *testing.T) {
	c := New[int]()
	calls := 0
	canceled := fmt.Errorf("sweep: %w", guard.ErrCanceled)
	_, err := c.GetOrCompute("k", func() (int, error) { calls++; return 0, canceled })
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("first attempt err = %v", err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("canceled computation left %d entries in the cache", got)
	}
	v, err := c.GetOrCompute("k", func() (int, error) { calls++; return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (no memoised cancellation)", calls)
	}
	// The successful retry is memoised as usual.
	v, err = c.GetOrCompute("k", func() (int, error) { calls++; return -1, nil })
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("after retry: v=%d calls=%d err=%v", v, calls, err)
	}
}

// A panicking computation must not poison its key: the panic reaches the
// caller that ran it, the entry is evicted, callers coalesced onto it get
// an error rather than a zero value, and a retry recomputes.
func TestPanickingComputeIsNotMemoised(t *testing.T) {
	c := New[*int]()
	waiter := make(chan error, 1)
	func() {
		defer func() {
			if r := recover(); r != "meltdown" {
				t.Errorf("recovered %v, want the compute's own panic", r)
			}
		}()
		_, _ = c.GetOrCompute("k", func() (*int, error) {
			go func() {
				v, err := c.GetOrCompute("k", func() (*int, error) {
					return nil, errors.New("coalesced caller ran its own computation")
				})
				if v != nil {
					err = fmt.Errorf("coalesced caller got value %v", v)
				}
				waiter <- err
			}()
			// Panic only once the second caller holds the entry.
			for h, _ := c.Counters(); h == 0; h, _ = c.Counters() {
				runtime.Gosched()
			}
			panic("meltdown")
		})
	}()
	if err := <-waiter; !errors.Is(err, errPanicked) {
		t.Errorf("coalesced caller got %v, want errPanicked", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("panicked computation left %d entries in the cache", n)
	}
	if c.InFlight() != 0 {
		t.Errorf("in-flight gauge = %d after the panic, want 0", c.InFlight())
	}

	want := 42
	v, err := c.GetOrCompute("k", func() (*int, error) { return &want, nil })
	if err != nil || v == nil || *v != 42 {
		t.Fatalf("retry = %v, %v; want a fresh computation", v, err)
	}

	// A cache whose computation passes a coalesced caller's error on does
	// not memoise it either.
	outer := New[int]()
	if _, err := outer.GetOrCompute("k", func() (int, error) {
		return 0, fmt.Errorf("layer: %w", errPanicked)
	}); !errors.Is(err, errPanicked) {
		t.Fatalf("outer err = %v", err)
	}
	if n := outer.Len(); n != 0 {
		t.Errorf("outer cache memoised a coalesced panic (%d entries)", n)
	}
}

// Deterministic errors keep being memoised: divergence is a property of the
// inputs and recomputing it would burn the same steps for the same answer.
func TestNumericErrorsStayMemoised(t *testing.T) {
	c := New[int]()
	calls := 0
	diverged := fmt.Errorf("transient: %w", guard.ErrDiverged)
	for i := 0; i < 3; i++ {
		_, err := c.GetOrCompute("k", func() (int, error) { calls++; return 0, diverged })
		if !errors.Is(err, guard.ErrDiverged) {
			t.Fatalf("attempt %d err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}
