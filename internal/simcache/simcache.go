// Package simcache is the evaluation pipeline's memoisation layer: a
// thread-safe, content-keyed cache from deterministic model inputs to their
// results.
//
// The simulators and estimators of this repository are pure functions of
// their configuration structs, yet the exhibits re-derive identical results
// constantly — every sweep point of Figs. 20–22 re-simulates the Baseline
// reference, every Table III row re-evaluates the TPU, and the RCSJ gate
// extraction behind Fig. 7 is a fixed transient. Each such producer —
// npusim, scalesim, estimator and jsim — keeps a package-level Cache here
// and registers it under its name so callers can inspect hit/miss counters
// or clear everything for cold-start benchmarks. Nothing finer is cached:
// the cycle models charge a layer in closed form from its tile classes
// (mapper.Classes), in O(1), so a per-layer cache would have nothing to
// save.
//
// A cache keys on a compact binary encoding of its inputs, which the caller
// appends into a buffer it holds (see KeyBuf). Every field is written in a
// self-delimiting form — strings as a uvarint length and their bytes, ints
// as varints, bools as one byte, floats as their eight IEEE 754 bytes — in
// a fixed order, so a key parses back into exactly one input: distinct
// inputs can never share an entry, whatever bytes their names hold. A
// network is the one field with two forms, told apart by a tag byte: one
// of the paper's six CNNs keys as its template index in two bytes, and any
// other network by its content (AppendNetworkKey). There is no hash, so
// nothing probabilistic is involved. A lookup indexes the map with the
// caller's bytes directly and a hit allocates nothing; only a miss copies
// the key into the map.
//
// Cached values are shared between callers and across goroutines: treat
// anything returned through a Cache as immutable.
package simcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/obs"
	"supernpu/internal/workload"
)

// --- binary memo keys ---

// KeyBuf is the buffer a caller appends a network-carrying key into. The
// six CNNs key in a few dozen bytes, since their networks take two; the
// 2 KB are for custom networks, which key by content. It holds the content
// key of a GoogLeNet-sized custom network (a renamed GoogLeNet keys in
// about 1 350 bytes) with the fault-model tail, so as a local variable it
// keeps such a hit free of allocation too; a larger custom network grows
// its key onto the heap once per lookup.
type KeyBuf [2048]byte

// AppendString appends s as its uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// appendBool appends v as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends the eight bytes of v's IEEE 754 bit pattern, so
// values that compare equal but differ in bits (0 and −0) key apart.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendConfigKey appends the key of an SFQ NPU configuration. Keys sit on
// the memoised simulation hot path, so the fields are written by hand
// rather than through reflection; keep this in step with arch.Config (the
// cachekey lint rule checks that every field is read).
func AppendConfigKey(b []byte, cfg arch.Config) []byte {
	b = AppendString(b, cfg.Name)
	b = AppendInt(b, int64(cfg.ArrayHeight))
	b = AppendInt(b, int64(cfg.ArrayWidth))
	b = AppendInt(b, int64(cfg.Registers))
	b = AppendInt(b, int64(cfg.IfmapBufBytes))
	b = AppendInt(b, int64(cfg.IfmapChunks))
	b = AppendInt(b, int64(cfg.OutputBufBytes))
	b = AppendInt(b, int64(cfg.OutputChunks))
	b = appendBool(b, cfg.IntegratedOutput)
	b = AppendInt(b, int64(cfg.PsumBufBytes))
	b = AppendInt(b, int64(cfg.WeightBufBytes))
	b = AppendInt(b, int64(cfg.Tech))
	return AppendFloat(b, cfg.MemoryBandwidth)
}

// ConfigKey returns AppendConfigKey's key as a string, for callers that
// keep keys as values; no cache builds it. Its last callers are in the
// benchmark module (_perfbench/serve.go and gen_test.go), which tell
// configurations apart by it.
func ConfigKey(cfg arch.Config) string { return string(AppendConfigKey(nil, cfg)) }

// AppendNetworkKey appends the key of a workload. A network equal to one
// of the paper's six CNNs (workload.TemplateIndex) keys as a 0 tag byte
// and the template's uvarint index: two bytes, however many layers it has.
// Any other network keys as a 1 tag byte and its content record
// (appendContentKey). The form is canonical: a network equal to a template
// never takes the content form, so equal networks share one key however
// they were built, and the tag keeps the two forms apart.
func AppendNetworkKey(b []byte, net workload.Network) []byte {
	if i, ok := workload.TemplateIndex(net); ok {
		return binary.AppendUvarint(append(b, 0), uint64(i))
	}
	return appendContentKey(append(b, 1), net)
}

// appendContentKey appends a network's content record: its name, layer
// count and every layer field, so two custom networks sharing a display
// name still key separately. Keep in step with workload.Layer.
func appendContentKey(b []byte, net workload.Network) []byte {
	b = AppendString(b, net.Name)
	b = AppendInt(b, int64(len(net.Layers)))
	for _, l := range net.Layers {
		b = AppendString(b, l.Name)
		b = AppendInt(b, int64(l.Kind))
		b = AppendInt(b, int64(l.H))
		b = AppendInt(b, int64(l.W))
		b = AppendInt(b, int64(l.C))
		b = AppendInt(b, int64(l.R))
		b = AppendInt(b, int64(l.S))
		b = AppendInt(b, int64(l.M))
		b = AppendInt(b, int64(l.Stride))
		b = AppendInt(b, int64(l.Pad))
	}
	return b
}

// NetworkKey returns AppendNetworkKey's key as a string, for callers that
// keep keys as values; no cache builds it.
func NetworkKey(net workload.Network) string {
	var kb KeyBuf
	return string(AppendNetworkKey(kb[:0], net))
}

// AppendSimKey appends the key of one (configuration, network, batch)
// simulation.
func AppendSimKey(b []byte, cfg arch.Config, net workload.Network, batch int) []byte {
	b = AppendConfigKey(b, cfg)
	b = AppendNetworkKey(b, net)
	return AppendInt(b, int64(batch))
}

// SimKey returns AppendSimKey's key as a string, for callers that keep
// keys as values; no cache builds it.
func SimKey(cfg arch.Config, net workload.Network, batch int) string {
	var kb KeyBuf
	return string(AppendSimKey(kb[:0], cfg, net, batch))
}

// AppendFaultKey appends the key of a fault model: one 0 byte for a nil or
// disabled model, so such runs share the nominal entry, else a 1 followed
// by the seed and the five rates. Faulted results must never share an entry
// with nominal ones or with other fault settings.
func AppendFaultKey(b []byte, fm *faultinject.Model) []byte {
	if !fm.Enabled() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendInt(b, fm.Seed)
	b = AppendFloat(b, fm.IcSpread)
	b = AppendFloat(b, fm.PulseDrop)
	b = AppendFloat(b, fm.BitFlip)
	b = AppendFloat(b, fm.MarginErosion)
	return AppendFloat(b, fm.SimFail)
}

// --- the text identity kept for the benchmark module ---

// sep joins the parts of a Fingerprint.
const sep = "\x1f"

// Fingerprint renders each part with %+v and joins them with 0x1f. No memo
// cache keys through it: it is reflective, allocates, and lets a part
// whose text contains 0x1f alias another split of the parts. It remains
// only as a text identity for the benchmark module's request generator
// tests, which still call it.
func Fingerprint(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, "%+v", p)
	}
	return b.String()
}

// --- tile-plan keys ---

// appendShapeKey appends every field of a layer shape. Keep in step with
// workload.Shape.
func appendShapeKey(b []byte, s workload.Shape) []byte {
	b = AppendInt(b, int64(s.Kind))
	b = AppendInt(b, int64(s.H))
	b = AppendInt(b, int64(s.W))
	b = AppendInt(b, int64(s.C))
	b = AppendInt(b, int64(s.R))
	b = AppendInt(b, int64(s.S))
	b = AppendInt(b, int64(s.M))
	b = AppendInt(b, int64(s.Stride))
	return AppendInt(b, int64(s.Pad))
}

// AppendTilesKey appends the key of one tile plan: the layer shape plus
// the array geometry mapper.Tiles reads. No cache keys on it: the cycle
// models charge a layer's tile classes in closed form. It remains, with
// TilesKey, for the benchmark module's per-layer probe, which dedups the
// tile plans it times by key.
func AppendTilesKey(b []byte, s workload.Shape, height, width, registers int) []byte {
	b = appendShapeKey(b, s)
	b = AppendInt(b, int64(height))
	b = AppendInt(b, int64(width))
	return AppendInt(b, int64(registers))
}

// TilesKey returns AppendTilesKey's key as a string, for callers that keep
// keys as values.
func TilesKey(s workload.Shape, height, width, registers int) string {
	return string(AppendTilesKey(nil, s, height, width, registers))
}

// entry is one memoised computation; once guarantees the compute function
// runs at most once per key even under concurrent first access. key is the
// entry's map key, kept so a failed fill can evict exactly this entry.
type entry[V any] struct {
	once sync.Once
	key  string
	val  V
	err  error
}

// Cache is a thread-safe memo map from binary keys to values.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	m        map[string]*entry[V]
	hits     *obs.Counter
	miss     *obs.Counter
	inflight atomic.Int64
}

// New returns an empty cache. Its hit/miss counters are obs instruments
// from birth; Register later exposes them on the metrics registry under
// the cache's name.
func New[V any]() *Cache[V] {
	return &Cache[V]{
		m:    make(map[string]*entry[V]),
		hits: obs.NewCounter(),
		miss: obs.NewCounter(),
	}
}

// errPanicked is what callers coalesced onto a panicking computation
// receive; the panic itself propagates to the caller that ran it.
var errPanicked = errors.New("simcache: computation panicked")

// GetOrCompute returns the cached value for key, computing and storing it on
// first access. Concurrent callers of the same key share one computation;
// deterministic errors are memoised like values. Transient errors
// (guard.IsCancellation: cancellations and deadline expiries) describe
// the attempt, not the inputs, so the entry is evicted instead —
// a canceled request must not poison the key for every later caller.
// Callers coalesced onto an evicted computation still receive its transient
// error for this attempt; their retry starts a fresh computation. A panic in
// compute is treated the same way: it reaches the caller that ran it, the
// entry is evicted, and coalesced callers receive errPanicked, which in
// turn is not memoised by any cache whose computation returns it.
//
// key is read, never retained: a hit looks it up without copying it, so
// it allocates nothing, and only a miss copies it into the map.
func (c *Cache[V]) GetOrCompute(key []byte, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[string(key)]
	if ok {
		c.hits.Inc()
	} else {
		e = &entry[V]{key: string(key)}
		c.m[e.key] = e
		c.miss.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() { c.fill(e, compute) })
	return e.val, e.err
}

// fill runs compute into e, evicting e if compute panics or returns a
// transient error.
func (c *Cache[V]) fill(e *entry[V], compute func() (V, error)) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	e.err = errPanicked // kept only if compute panics
	defer func() {
		if errors.Is(e.err, errPanicked) || guard.IsCancellation(e.err) {
			c.mu.Lock()
			if c.m[e.key] == e {
				delete(c.m, e.key)
			}
			c.mu.Unlock()
		}
	}()
	e.val, e.err = compute()
}

// InFlight returns the number of computations currently running in this
// cache: first-access misses whose compute function has not returned yet.
// Duplicate concurrent requests coalesce onto one in-flight computation, so
// this gauge counts distinct work, not waiting callers.
func (c *Cache[V]) InFlight() int64 { return c.inflight.Load() }

// Len returns the number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Clear drops every entry and resets the hit/miss counters.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	c.m = make(map[string]*entry[V])
	c.mu.Unlock()
	c.hits.Reset()
	c.miss.Reset()
}

// Counters returns the cumulative hit and miss counts since the last Clear.
func (c *Cache[V]) Counters() (hits, misses int64) {
	return c.hits.Value(), c.miss.Value()
}

// Stats is one registered cache's counters snapshot.
type Stats struct {
	Name    string
	Hits    int64
	Misses  int64
	Entries int
	// InFlight is the number of computations running at snapshot time.
	InFlight int64
}

// HitRate is hits over total lookups (0 when never accessed).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// metered is the registry's view of a cache, independent of its value type.
type metered interface {
	Counters() (hits, misses int64)
	Len() int
	Clear()
	InFlight() int64
}

var (
	regMu    sync.Mutex
	registry = map[string]metered{}
)

// Register adds a named cache to the global registry, replacing any
// previous cache of the same name, and publishes its counters on the
// metrics registry as the supernpu_cache_* family with a cache=name
// label. Producers call it from package init.
func Register(name string, c interface {
	Counters() (hits, misses int64)
	Len() int
	Clear()
	InFlight() int64
}) {
	regMu.Lock()
	registry[name] = c
	regMu.Unlock()
	lbl := obs.L("cache", name)
	obs.Default.CounterFunc("supernpu_cache_hits_total", "memo cache lookups served from a completed entry", func() float64 {
		h, _ := c.Counters()
		return float64(h)
	}, lbl)
	obs.Default.CounterFunc("supernpu_cache_misses_total", "memo cache lookups that started a computation", func() float64 {
		_, m := c.Counters()
		return float64(m)
	}, lbl)
	obs.Default.GaugeFunc("supernpu_cache_entries", "memoised entries resident in the cache", func() float64 {
		return float64(c.Len())
	}, lbl)
	obs.Default.GaugeFunc("supernpu_cache_inflight", "distinct computations currently running", func() float64 {
		return float64(c.InFlight())
	}, lbl)
}

// Snapshot returns every registered cache's counters, sorted by name.
func Snapshot() []Stats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Stats, 0, len(registry))
	for name, c := range registry {
		h, m := c.Counters()
		out = append(out, Stats{Name: name, Hits: h, Misses: m, Entries: c.Len(), InFlight: c.InFlight()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Clear clears the one registered cache with the given name, reporting
// whether such a cache exists. Warm benchmarks use it to cool a single
// family, such as the whole-simulation caches, while the estimator and
// jsim entries stay warm.
func Clear(name string) bool {
	regMu.Lock()
	c, ok := registry[name]
	regMu.Unlock()
	if ok {
		c.Clear()
	}
	return ok
}

// ClearAll clears every registered cache (cold-start benchmarks).
func ClearAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range registry {
		c.Clear()
	}
}
