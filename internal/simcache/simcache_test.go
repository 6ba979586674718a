package simcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
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
	ref := AppendConfigKey(nil, base)
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if bytes.Equal(AppendConfigKey(nil, c), ref) {
			t.Errorf("mutation %d: distinct configs share a key", i)
		}
	}
	zero, negZero := base, base
	zero.MemoryBandwidth = 0
	negZero.MemoryBandwidth = math.Copysign(0, -1)
	if bytes.Equal(AppendConfigKey(nil, zero), AppendConfigKey(nil, negZero)) {
		t.Error("0 and -0 bandwidths share a key")
	}
}

func TestNetworkKeyDistinguishesLayersNotJustNames(t *testing.T) {
	a := workload.Network{Name: "net", Layers: []workload.Layer{
		{Name: "l", Kind: workload.Conv, H: 8, W: 8, C: 3, R: 3, S: 3, M: 16, Stride: 1, Pad: 1},
	}}
	b := a
	b.Layers = []workload.Layer{a.Layers[0]}
	b.Layers[0].M = 32
	if bytes.Equal(AppendNetworkKey(nil, a), AppendNetworkKey(nil, b)) {
		t.Fatal("networks with the same name but different layers share a key")
	}
	if !bytes.Equal(AppendNetworkKey(nil, a), AppendNetworkKey(nil, workload.Network{Name: a.Name, Layers: a.Layers})) {
		t.Fatal("identical networks produce different keys")
	}
	if NetworkKey(a) != string(AppendNetworkKey(nil, a)) {
		t.Fatal("NetworkKey differs from AppendNetworkKey")
	}
}

// TestNetworkKeySurvivesSeparatorNames is the aliasing pair the text keys
// got wrong: the second network's only layer is the first network's second
// layer, under a name that spells out the first layer's fields joined by
// 0x1f. Self-delimiting names keep the two apart.
func TestNetworkKeySurvivesSeparatorNames(t *testing.T) {
	x := workload.Layer{Name: "x", Kind: workload.Conv, H: 8, W: 8, C: 4, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	y := workload.Layer{Name: "y", Kind: workload.Conv, H: 8, W: 8, C: 8, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	a := workload.Network{Name: "N", Layers: []workload.Layer{x, y}}
	b := workload.Network{Name: "N\x1fx\x1f0\x1f8\x1f8\x1f4\x1f3\x1f3\x1f8\x1f1\x1f1", Layers: []workload.Layer{y}}
	cfg := arch.SuperNPU()
	if bytes.Equal(AppendSimKey(nil, cfg, a, 1), AppendSimKey(nil, cfg, b, 1)) {
		t.Fatal("two different networks share a simulation key")
	}
}

func TestSimKeySeparatesBatchFromShape(t *testing.T) {
	cfg := arch.Baseline()
	net, err := workload.ByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(AppendSimKey(nil, cfg, net, 1), AppendSimKey(nil, cfg, net, 2)) {
		t.Fatal("batches 1 and 2 share a key")
	}
	other := cfg
	other.Registers++
	if bytes.Equal(AppendSimKey(nil, cfg, net, 1), AppendSimKey(nil, other, net, 1)) {
		t.Fatal("distinct configs share a simulation key")
	}
	if SimKey(cfg, net, 1) != string(AppendSimKey(nil, cfg, net, 1)) {
		t.Fatal("SimKey differs from AppendSimKey")
	}
}

// TestFaultKeyTagsTheModel pins the fault tail: a nil or disabled model
// appends the nominal tag alone, so its runs share the nominal entry; any
// enabled model keys apart from it and from every other setting.
func TestFaultKeyTagsTheModel(t *testing.T) {
	nominal := AppendFaultKey(nil, nil)
	if !bytes.Equal(nominal, []byte{0}) {
		t.Fatalf("nil model key = %x, want 00", nominal)
	}
	if !bytes.Equal(AppendFaultKey(nil, &faultinject.Model{Seed: 9}), nominal) {
		t.Error("a disabled model does not share the nominal key")
	}
	base := faultinject.Model{Seed: 42, IcSpread: 0.03, PulseDrop: 1e-9, BitFlip: 2.5e-12, MarginErosion: 0.05, SimFail: 0.125}
	ref := AppendFaultKey(nil, &base)
	if bytes.Equal(ref, nominal) {
		t.Fatal("an enabled model shares the nominal key")
	}
	mutations := []func(*faultinject.Model){
		func(m *faultinject.Model) { m.Seed++ },
		func(m *faultinject.Model) { m.IcSpread *= 2 },
		func(m *faultinject.Model) { m.PulseDrop *= 2 },
		func(m *faultinject.Model) { m.BitFlip *= 2 },
		func(m *faultinject.Model) { m.MarginErosion *= 2 },
		func(m *faultinject.Model) { m.SimFail *= 2 },
	}
	for i, mutate := range mutations {
		m := base
		mutate(&m)
		if bytes.Equal(AppendFaultKey(nil, &m), ref) {
			t.Errorf("mutation %d: distinct fault models share a key", i)
		}
	}
}

// TestKeyBufHoldsEveryCNN pins KeyBuf's size: the whole-simulation key of
// each of the six CNNs, with a full fault tail, fits without growing.
func TestKeyBufHoldsEveryCNN(t *testing.T) {
	fm := &faultinject.Model{Seed: math.MinInt64, IcSpread: 1, PulseDrop: 1, BitFlip: 1, MarginErosion: 1, SimFail: 1}
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			var kb KeyBuf
			key := AppendFaultKey(AppendSimKey(kb[:0], cfg, net, math.MaxInt), fm)
			if len(key) > len(kb) {
				t.Errorf("%s/%s: key of %d bytes outgrows KeyBuf (%d)", cfg.Name, net.Name, len(key), len(kb))
			}
		}
	}
}

// TestHitAllocatesNothing pins the lookup contract: a hit indexes the map
// with the caller's bytes and neither copies them nor builds anything.
func TestHitAllocatesNothing(t *testing.T) {
	c := New[int](t.Name())
	var kb KeyBuf
	key := AppendSimKey(kb[:0], arch.SuperNPU(), workload.ResNet50(), 1)
	if _, err := c.GetOrCompute(key, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := c.GetOrCompute(key, func() (int, error) { return 2, nil }); v != 1 || err != nil {
			t.Fatalf("hit = (%d, %v)", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit allocates %.1f times, want 0", allocs)
	}
}

func TestGetOrComputeMemoises(t *testing.T) {
	c := New[int](t.Name())
	calls := 0
	for i := 0; i < 5; i++ {
		v, err := c.GetOrCompute([]byte("k"), func() (int, error) { calls++; return 42, nil })
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
	c := New[int](t.Name())
	want := errors.New("deterministic failure")
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrCompute([]byte("bad"), func() (int, error) { calls++; return 0, want }); !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if h, m := c.Counters(); h != 2 || m != 1 || c.Len() != 1 {
		t.Fatalf("counters = (%d hits, %d misses), %d entries; want (2, 1), 1", h, m, c.Len())
	}
}

func TestConcurrentGetOrComputeRunsOnce(t *testing.T) {
	c := New[int](t.Name())
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute([]byte("shared"), func() (int, error) {
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
	c := New[int](t.Name())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := AppendInt(nil, int64(i))
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
	c := New[string](t.Name())
	c.GetOrCompute([]byte("a"), func() (string, error) { return "x", nil })
	c.GetOrCompute([]byte("a"), func() (string, error) { return "x", nil })
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	if h, m := c.Counters(); h != 0 || m != 0 {
		t.Fatalf("counters after Clear = (%d, %d)", h, m)
	}
	if v, _ := c.GetOrCompute([]byte("a"), func() (string, error) { return "y", nil }); v != "y" {
		t.Fatal("entry survived Clear")
	}
	if h, m := c.Counters(); h != 0 || m != 1 {
		t.Fatalf("counters after the post-Clear lookup = (%d, %d), want a miss", h, m)
	}
}

func TestRegistrySnapshotAndClearAll(t *testing.T) {
	c := New[int](t.Name())
	c.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil })
	c.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil })

	var found *Stats
	for _, s := range Snapshot() {
		if s.Name == t.Name() {
			found = &s
			break
		}
	}
	if found == nil {
		t.Fatal("cache missing from snapshot")
	}
	if found.Hits != 1 || found.Misses != 1 || found.Entries != 1 {
		t.Fatalf("snapshot = %+v, want 1 hit, 1 miss, 1 entry", found)
	}
	if got := found.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", got)
	}

	ClearAll()
	if c.Len() != 0 {
		t.Fatal("ClearAll did not clear the cache")
	}
}

// TestStatsString pins the -v line of supernpu-repro and supernpu-explore.
func TestStatsString(t *testing.T) {
	s := Stats{Name: "npusim", Hits: 94, Misses: 440, Entries: 440}
	want := "cache npusim       440 entries,     94 hits,   440 misses (18% hit rate)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestClearByName pins the single-family clear used by warm benchmarks.
func TestClearByName(t *testing.T) {
	c := New[int](t.Name())
	if _, err := c.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
	if !Clear(t.Name()) {
		t.Fatal("Clear did not find the cache")
	}
	if c.Len() != 0 {
		t.Error("Clear left entries behind")
	}
	if Clear("no-such-cache") {
		t.Error("Clear invented an unregistered cache")
	}
}

// TestNewStartsFromZero: a cache built under a name an earlier cache used
// replaces it and does not inherit its counts, which share the name's
// series.
func TestNewStartsFromZero(t *testing.T) {
	old := New[int](t.Name())
	old.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil })
	old.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil })
	c := New[int](t.Name())
	if h, m := c.Counters(); h != 0 || m != 0 || entriesGauge(t) != 0 {
		t.Fatalf("new cache starts at (%d hits, %d misses, %d entries), want zeros", h, m, entriesGauge(t))
	}
	c.Clear()
	if old.Len() != 1 {
		t.Error("Clear by name reached the replaced cache")
	}
}

// entriesGauge reads the supernpu_cache_entries series of the cache the
// test named after itself.
func entriesGauge(t *testing.T) int64 {
	return obs.Default.Gauge("supernpu_cache_entries", "", obs.L("cache", t.Name())).Value()
}

// TestEntriesGaugeTracksLen: the entries series moves with the map under
// the cache's lock, so it equals Len() after misses, an evicted canceled
// or panicking computation, and Clear.
func TestEntriesGaugeTracksLen(t *testing.T) {
	c := New[int](t.Name())
	check := func(when string, want int) {
		t.Helper()
		if c.Len() != want || entriesGauge(t) != int64(want) {
			t.Errorf("after %s: Len() = %d, entries gauge = %d, want %d", when, c.Len(), entriesGauge(t), want)
		}
	}
	for i := 0; i < 3; i++ {
		c.GetOrCompute(AppendInt(nil, int64(i)), func() (int, error) { return i, nil })
	}
	check("three misses", 3)
	c.GetOrCompute([]byte("canceled"), func() (int, error) { return 0, context.Canceled })
	check("a canceled compute", 3)
	func() {
		defer func() { _ = recover() }()
		c.GetOrCompute([]byte("panicked"), func() (int, error) { panic("meltdown") })
	}()
	check("a panicked compute", 3)
	c.Clear()
	check("Clear", 0)
}

// TestPoolPanicIsNotMemoised: a panic in a pool job reaches compute as a
// *parallel.PanicError value, not as a panic, and is evicted like one on
// the caller's goroutine: a retry recomputes.
func TestPoolPanicIsNotMemoised(t *testing.T) {
	c := New[int](t.Name())
	calls := 0
	compute := func() (int, error) {
		calls++
		return 0, parallel.ForEachContext(context.Background(), 1, func(context.Context, int) error {
			panic("meltdown")
		})
	}
	for i := 1; i <= 2; i++ {
		var pe *parallel.PanicError
		if _, err := c.GetOrCompute([]byte("k"), compute); !errors.As(err, &pe) {
			t.Fatalf("call %d: err = %v, want a *parallel.PanicError", i, err)
		}
		if n := c.Len(); n != 0 {
			t.Fatalf("call %d: pool panic left %d entries in the cache", i, n)
		}
		if calls != i {
			t.Fatalf("call %d: compute ran %d times, want %d", i, calls, i)
		}
	}
}

// Transient failures (cancellations and deadline expiries) are
// properties of the attempt, not the inputs: memoising one would poison
// the key for every later caller. The entry is evicted instead, so a retry
// recomputes and can cache the real result.
func TestTransientErrorsAreNotMemoised(t *testing.T) {
	c := New[int](t.Name())
	calls := 0
	canceled := fmt.Errorf("sweep: %w", context.Canceled)
	_, err := c.GetOrCompute([]byte("k"), func() (int, error) { calls++; return 0, canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first attempt err = %v", err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("canceled computation left %d entries in the cache", got)
	}
	v, err := c.GetOrCompute([]byte("k"), func() (int, error) { calls++; return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (no memoised cancellation)", calls)
	}
	// The successful retry is memoised as usual.
	v, err = c.GetOrCompute([]byte("k"), func() (int, error) { calls++; return -1, nil })
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("after retry: v=%d calls=%d err=%v", v, calls, err)
	}
}

// A panicking computation must not poison its key: the panic reaches the
// caller that ran it, the entry is evicted, callers coalesced onto it get
// an error rather than a zero value, and a retry recomputes.
func TestPanickingComputeIsNotMemoised(t *testing.T) {
	c := New[*int](t.Name())
	waiter := make(chan error, 1)
	func() {
		defer func() {
			if r := recover(); r != "meltdown" {
				t.Errorf("recovered %v, want the compute's own panic", r)
			}
		}()
		_, _ = c.GetOrCompute([]byte("k"), func() (*int, error) {
			go func() {
				v, err := c.GetOrCompute([]byte("k"), func() (*int, error) {
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
	v, err := c.GetOrCompute([]byte("k"), func() (*int, error) { return &want, nil })
	if err != nil || v == nil || *v != 42 {
		t.Fatalf("retry = %v, %v; want a fresh computation", v, err)
	}

	// A cache whose computation passes a coalesced caller's error on does
	// not memoise it either.
	outer := New[int](t.Name() + "/outer")
	if _, err := outer.GetOrCompute([]byte("k"), func() (int, error) {
		return 0, fmt.Errorf("layer: %w", errPanicked)
	}); !errors.Is(err, errPanicked) {
		t.Fatalf("outer err = %v", err)
	}
	if n := outer.Len(); n != 0 {
		t.Errorf("outer cache memoised a coalesced panic (%d entries)", n)
	}
}

// Deterministic errors keep being memoised: a non-finite report is a
// property of the inputs and recomputing it would burn the same steps for
// the same answer.
func TestNumericErrorsStayMemoised(t *testing.T) {
	c := New[int](t.Name())
	calls := 0
	nonFinite := errors.New("npusim: x/y/b1 produced a non-finite report")
	for i := 0; i < 3; i++ {
		_, err := c.GetOrCompute([]byte("k"), func() (int, error) { calls++; return 0, nonFinite })
		if !errors.Is(err, nonFinite) {
			t.Fatalf("attempt %d err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}
