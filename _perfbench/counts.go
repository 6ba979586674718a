package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"supernpu/internal/obs"
	"supernpu/internal/simcache"
)

// Instruments the program already exports. The benchmark only reads them.
var (
	jsimSteps  = obs.Default.Counter("supernpu_jsim_steps_total", "")
	layerSites = obs.Default.Counter("supernpu_npusim_layer_sites_total", "")
	poolTasks  = obs.Default.Counter("supernpu_pool_tasks_total", "")
	httpShed   = obs.Default.Counter("supernpu_http_shed_total", "")
	httpDegr   = obs.Default.Counter("supernpu_http_degraded_total", "")
	queueWait  = obs.Default.Histogram("supernpu_pool_queue_wait_seconds", "", obs.DurationEdges)
)

// familyCount is one memo-cache family's lookups over a pass.
type familyCount struct {
	Name   string
	Hits   int64
	Misses int64
}

func (f familyCount) hitRatio() float64 {
	if f.Hits+f.Misses == 0 {
		return 0
	}
	return float64(f.Hits) / float64(f.Hits+f.Misses)
}

// workCounts is the work one pass did, as exact counts. None depends on
// timing or scheduling, so two runs of one seed, and the untraced and
// traced runs of one seed, must agree on every field.
type workCounts struct {
	JSIMSteps  int64
	LayerSites int64
	PoolTasks  int64
	// Entries is the number of memoised entries resident at the end of the
	// pass, summed over every cache family.
	Entries  int64
	Families []familyCount
}

func (w workCounts) family(name string) familyCount {
	for _, f := range w.Families {
		if f.Name == name {
			return f
		}
	}
	return familyCount{Name: name}
}

func (w workCounts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jsim.steps=%d npusim.layer_sites=%d parallel.tasks=%d simcache.entries=%d",
		w.JSIMSteps, w.LayerSites, w.PoolTasks, w.Entries)
	for _, f := range w.Families {
		fmt.Fprintf(&b, " %s=%d/%d", f.Name, f.Hits, f.Misses)
	}
	return b.String()
}

func (w workCounts) equal(o workCounts) bool { return w.String() == o.String() }

// meter accumulates the counters over one pass. The memo caches reset
// their hit and miss counters on every clear, so the meter folds a
// snapshot into its tally before each clear it performs.
type meter struct {
	steps0, sites0, tasks0, shed0, degr0 int64
	queueWait0                           float64
	gc0                                  float64
	tally                                map[string]*familyCount
}

// startMeter empties every cache and records the counter baselines.
func startMeter() *meter {
	simcache.ClearAll()
	return &meter{
		steps0: jsimSteps.Value(), sites0: layerSites.Value(), tasks0: poolTasks.Value(),
		shed0: httpShed.Value(), degr0: httpDegr.Value(),
		queueWait0: queueWait.Sum(),
		gc0:        gcCPUSeconds(),
		tally:      map[string]*familyCount{},
	}
}

func (m *meter) fold() []simcache.Stats {
	snap := simcache.Snapshot()
	for _, s := range snap {
		f, ok := m.tally[s.Name]
		if !ok {
			f = &familyCount{Name: s.Name}
			m.tally[s.Name] = f
		}
		f.Hits += s.Hits
		f.Misses += s.Misses
	}
	return snap
}

// clearAll empties every cache, keeping the lookups made so far.
func (m *meter) clearAll() {
	m.fold()
	simcache.ClearAll()
}

// meterReading is what a pass reports from the program's own counters.
type meterReading struct {
	work           workCounts
	queueWaitS     float64
	gcCPUS         float64
	shed, degraded int64
}

// stop takes the final reading. Call it once, when the pass's work is done.
func (m *meter) stop() meterReading {
	var r meterReading
	for _, s := range m.fold() {
		r.work.Entries += int64(s.Entries)
	}
	for _, f := range m.tally {
		r.work.Families = append(r.work.Families, *f)
	}
	sort.Slice(r.work.Families, func(i, j int) bool { return r.work.Families[i].Name < r.work.Families[j].Name })
	r.work.JSIMSteps = jsimSteps.Value() - m.steps0
	r.work.LayerSites = layerSites.Value() - m.sites0
	r.work.PoolTasks = poolTasks.Value() - m.tasks0
	r.queueWaitS = queueWait.Sum() - m.queueWait0
	r.gcCPUS = gcCPUSeconds() - m.gc0
	r.shed = httpShed.Value() - m.shed0
	r.degraded = httpDegr.Value() - m.degr0
	return r
}

// runtime/metrics samples the benchmark reads.
const (
	metricGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	metricAllocs = "/gc/heap/allocs:bytes"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func gcCPUSeconds() float64 { return readMetric(metricGCCPU).Float64() }

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric(metricAllocs).Uint64() }

// liveHeapBytes forces a collection and returns the heap still reachable.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
