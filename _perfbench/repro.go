package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/experiments"
	"supernpu/internal/faultinject"
	"supernpu/internal/workload"
)

// Work per run. The amount of work is fixed by --seconds, not by the clock,
// so two commits are compared on equal work; the rates are set so that a
// run takes about --seconds on a 2-vCPU VM.
const (
	// reproRoundsPerSecond rounds of one cold and reproWarmPerRound warm
	// reports.
	reproRoundsPerSecond = 10
	reproWarmPerRound    = 8
	// marginRoundsPerSecond rounds of one cold and marginWarmPerRound warm
	// sweeps.
	marginRoundsPerSecond = 2.4
	marginWarmPerRound    = 20
)

const goldenReport = "testdata/golden/full_report.golden"

func setupRepro(ctx context.Context, o options) (func() error, error) {
	_, err := readGolden()
	return func() error { return nil }, err
}

func readGolden() (string, error) {
	path, err := repoFile(goldenReport)
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// runRepro regenerates the full report the way supernpu-repro does: each
// round clears every cache and renders all exhibits (cold), then renders
// them again with the caches populated (warm). Every report must equal the
// committed golden report byte for byte.
func runRepro(ctx context.Context, o options, tr *tracer) (*pass, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	p := &pass{probe: reproProbeInputs()}
	m := startMeter()
	report := func(op, parent int64) bool {
		var out string
		var err error
		tr.call("experiments.RunAll", op, parent, func() { out, err = experiments.RunAll(ctx) })
		return err == nil && out == golden
	}
	for k := 0; k < perSecond(o, reproRoundsPerSecond); k++ {
		op := tr.newOp()
		root := tr.begin("repro.cold", "", op, 0)
		a0 := allocatedBytes()
		start := time.Now()
		tr.call("simcache.ClearAll", op, root.id(), m.clearAll)
		ok := report(op, root.id())
		d := time.Since(start)
		p.primary(allocatedBytes()-a0, 1, d)
		root.end()
		p.record(&p.cold, d, ok)
		for w := 0; w < reproWarmPerRound; w++ {
			op := tr.newOp()
			root := tr.begin("repro.warm", "", op, 0)
			start := time.Now()
			ok := report(op, root.id())
			d := time.Since(start)
			root.end()
			p.record(&p.warm, d, ok)
		}
	}
	p.meter = m.stop()
	p.heapLive = liveHeapBytes()
	return p, nil
}

// reproProbeInputs are the evaluations behind Fig. 23 (every design point
// on every CNN at batch 1 and at its maximum batch), the SFQ designs'
// configurations and the exhibits.
func reproProbeInputs() probeInputs {
	var in probeInputs
	for _, d := range core.DesignPoints() {
		for _, net := range workload.All() {
			for _, b := range []int{1, 0} {
				in.evals = append(in.evals, evalInput{design: d, net: net, batch: b})
			}
		}
	}
	in.configs = arch.Designs()
	in.exhibits = true
	return in
}

// marginOptions are the settings of the margin sweep of round k: the
// exhibit's default spreads and per-spread fault rates, spelled out so the
// per-layer probe can rebuild the same fault models, and a fault seed
// derived from the workload seed and k.
func marginOptions(seed uint64, k int) experiments.MarginSweepOptions {
	r := newRNG(seed, streamFault, k)
	return experiments.MarginSweepOptions{
		Seed:               int64(r.next() >> 44),
		IcSpreads:          []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10},
		PulseDropPerSpread: 1e-4,
		BitFlipPerSpread:   1e-2,
		ErosionPerSpread:   0.5,
	}
}

// marginModels are the fault models MarginSweep builds from o, one per
// spread.
func marginModels(o experiments.MarginSweepOptions) []*faultinject.Model {
	out := make([]*faultinject.Model, len(o.IcSpreads))
	for i, s := range o.IcSpreads {
		out[i] = &faultinject.Model{
			Seed: o.Seed, IcSpread: s,
			PulseDrop:     o.PulseDropPerSpread * s,
			BitFlip:       o.BitFlipPerSpread * s,
			MarginErosion: o.ErosionPerSpread * s,
		}
	}
	return out
}

// setupMargin has nothing to build: the margin workload's set-up is the
// process start and package initialisation.
func setupMargin(ctx context.Context, o options) (func() error, error) {
	return func() error { return nil }, nil
}

// runMargin regenerates the fault-injected bias-margin sweep: each round
// clears every cache and runs the sweep with the round's fault seed
// (cold), then runs it again with the caches populated (warm). A fault
// seed changes how many RK4 steps the sweep takes, so drawing one per round
// keeps a run's median from resting on a single seed's step count. The
// sweep text must be identical across every repetition of a round, and
// between the untraced and traced runs.
func runMargin(ctx context.Context, o options, tr *tracer) (*pass, error) {
	p := &pass{probe: probeInputs{
		evals:   []evalInput{{design: core.SFQDesign(arch.SuperNPU()), net: workload.ResNet50(), batch: 1}},
		configs: []arch.Config{arch.SuperNPU()},
		models:  marginModels(marginOptions(o.seed, 0)),
	}}
	m := startMeter()
	h := sha256.New()
	for k := 0; k < perSecond(o, marginRoundsPerSecond); k++ {
		opts := marginOptions(o.seed, k)
		var first string
		sweep := func(op, parent int64) bool {
			var out string
			var err error
			tr.call("experiments.MarginSweep", op, parent, func() { out, err = experiments.MarginSweep(ctx, opts) })
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: margin sweep:", err)
				return false
			}
			if first == "" {
				first = out
			}
			return out == first
		}
		op := tr.newOp()
		root := tr.begin("margin.cold", "", op, 0)
		a0 := allocatedBytes()
		start := time.Now()
		tr.call("simcache.ClearAll", op, root.id(), m.clearAll)
		ok := sweep(op, root.id())
		d := time.Since(start)
		p.primary(allocatedBytes()-a0, 1, d)
		root.end()
		p.record(&p.cold, d, ok)
		for w := 0; w < marginWarmPerRound; w++ {
			op := tr.newOp()
			root := tr.begin("margin.warm", "", op, 0)
			start := time.Now()
			ok := sweep(op, root.id())
			d := time.Since(start)
			root.end()
			p.record(&p.warm, d, ok)
		}
		h.Write([]byte(first))
		h.Write([]byte{0})
	}
	p.meter = m.stop()
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.heapLive = liveHeapBytes()
	return p, nil
}
