package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// pass is one execution of a workload's timed work.
type pass struct {
	// cold and warm hold one latency per cold and warm operation in ms
	// (see NOTES.md); a failed operation is +Inf, so it counts as over any
	// limit.
	cold, warm []float64
	// primaryAlloc is the heap allocated by the primaryOps operations of
	// the workload's primary phase (see NOTES.md).
	primaryAlloc uint64
	primaryOps   int
	primaryWall  time.Duration
	heapLive     uint64
	attempted    int
	failed       int
	meter        meterReading
	// digest summarises the outputs that must be identical between the
	// untraced and traced runs of one seed.
	digest string
	// probe lists the workload's inputs for the per-layer probes.
	probe probeInputs
}

// record adds one operation's outcome to samples.
func (p *pass) record(samples *[]float64, d time.Duration, ok bool) {
	p.attempted++
	if !ok {
		p.failed++
		*samples = append(*samples, math.Inf(1))
		return
	}
	*samples = append(*samples, ms(d))
}

// primary accounts one stretch of the primary phase.
func (p *pass) primary(alloc uint64, ops int, wall time.Duration) {
	p.primaryAlloc += alloc
	p.primaryOps += ops
	p.primaryWall += wall
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd is the metric set every workload reports.
func (p *pass) endToEnd(setup float64, setups int) *metricSet {
	s := &metricSet{}
	s.add("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setups))
	s.latency("cold_ms", p.cold)
	s.latency("warm_ms", p.warm)
	s.add("heap_live_mb", float64(p.heapLive)/1e6, "MB", "after forced GC, caches populated")
	s.add("alloc_kb_per_op", float64(p.primaryAlloc)/1e3/float64(max(p.primaryOps, 1)), "KB",
		fmt.Sprintf("over %d primary operations", p.primaryOps))
	return s
}

// setupProbes is how many times a run sets the workload up to measure
// setup_s; the median of the probes is reported. Each probe starts
// setupPause after the previous one has exited, from an idle machine as a
// real launch does. A probe that has not finished within
// setupProbeTimeout is killed and fails the run.
const (
	setupProbes       = 40
	setupPause        = 20 * time.Millisecond
	setupProbeTimeout = 30 * time.Second
)

// measureSetup sets the workload up in fresh processes before the run, so
// package initialisation counts and nothing of the run itself competes
// with the probes.
func measureSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupProbes)
	for k := 0; k < setupProbes; k++ {
		time.Sleep(setupPause)
		d, err := setupOnce(exe, o)
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// setupOnce runs one set-up probe and waits for it to exit. The probe
// reports its own set-up time, from the start of its package
// initialisation until it is ready.
func setupOnce(exe string, o options) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupProbeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var ns int64
	if err == nil {
		_, err = fmt.Sscanf(string(out), "ready %d\n", &ns)
	}
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %q: %w", out, err)
	}
	return time.Duration(ns), nil
}

// run measures the workload and prints its metrics; it reports whether
// every output check passed.
func run(ctx context.Context, def workloadDef, o options) (bool, error) {
	setup, err := measureSetup(o)
	if err != nil {
		return false, err
	}
	fmt.Printf("workload %s, seed %d, seconds %d, trace %t, clients and GOMAXPROCS %d\n",
		o.workload, o.seed, o.seconds, o.trace, clients())
	plain, err := def.run(ctx, o, nil)
	if err != nil {
		return false, err
	}
	e2e := plain.endToEnd(setup, setupProbes)
	fmt.Println("end-to-end, untraced:")
	e2e.print(os.Stdout)
	printPass(plain)
	fmt.Println("work counts:", plain.meter.work)
	correct := plain.failed == 0
	attempted, failed := plain.attempted, plain.failed
	out := e2e
	if o.trace {
		tr := newTracer()
		traced, err := def.run(ctx, o, tr)
		if err != nil {
			return false, err
		}
		attempted += traced.attempted
		failed += traced.failed
		fmt.Println("end-to-end, traced:")
		tracedE2E := traced.endToEnd(setup, setupProbes)
		tracedE2E.print(os.Stdout)
		printPass(traced)
		if !traced.meter.work.equal(plain.meter.work) {
			correct = false
			fmt.Println("work counts DIFFER between the untraced and traced runs:")
			fmt.Println("  untraced:", plain.meter.work)
			fmt.Println("  traced:  ", traced.meter.work)
		} else {
			fmt.Println("work counts: identical in the untraced and traced runs")
		}
		if traced.digest != plain.digest {
			correct = false
			fmt.Println("outputs DIFFER between the untraced and traced runs")
		}
		layers, err := perLayer(ctx, o, plain, tr)
		if err != nil {
			return false, err
		}
		addOverhead(layers, e2e, tracedE2E)
		fmt.Println("per-layer, traced run:")
		layers.print(os.Stdout)
		printSelfTimes(tr.snapshot())
		path := fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", o.workload, o.seed)
		if err := writeSpans(path, tr.snapshot()); err != nil {
			return false, err
		}
		fmt.Println("spans written to", path)
		out = layers
	}
	correct = correct && failed == 0
	fmt.Println(encodeResult(correct, attempted, failed, out))
	return correct, nil
}

// addOverhead adds the tracing overhead to s: each end-to-end metric of the
// traced run minus the untraced one (set-up is shared by both).
func addOverhead(s, untraced, traced *metricSet) {
	for i, m := range untraced.list {
		if m.Name != "setup_s" {
			s.add("tracing."+m.Name, traced.list[i].Value-m.Value, m.Unit, "traced minus untraced")
		}
	}
}

// printPass prints the figures of a pass that are not gated metrics: the
// primary phase's throughput and the error ratio.
func printPass(p *pass) {
	fmt.Printf("%-28s = %s 1/s  (%d primary operations in %s)\n", "throughput",
		formatValue(float64(p.primaryOps)/p.primaryWall.Seconds()), p.primaryOps, p.primaryWall.Round(time.Millisecond))
	fmt.Printf("%-28s = %s 1  (%d failed of %d attempted)\n", "error_ratio",
		formatValue(float64(p.failed)/float64(max(p.attempted, 1))), p.failed, p.attempted)
}

func printSelfTimes(spans []span) {
	fmt.Println("span self times (self = span minus the part its children cover):")
	for _, lt := range selfTimes(spans) {
		fmt.Printf("  %-26s count %-7d total %-12s self %s\n", lt.Name, lt.Count,
			lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
	}
}
