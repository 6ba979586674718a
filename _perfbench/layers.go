package main

import (
	"context"
	"fmt"
	"time"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/estimator"
	"supernpu/internal/experiments"
	"supernpu/internal/faultinject"
	"supernpu/internal/jsim"
	"supernpu/internal/mapper"
	"supernpu/internal/npusim"
	"supernpu/internal/scalesim"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// evalInput is one (design, network, batch) evaluation.
type evalInput struct {
	design core.Design
	net    workload.Network
	batch  int
}

// probeInputs are the inputs of a workload that the per-layer probes feed
// straight into the model packages.
type probeInputs struct {
	evals   []evalInput
	configs []arch.Config
	models  []*faultinject.Model
	// exhibits is set when the workload renders the report's exhibits,
	// Fig. 7's jsim extraction among them.
	exhibits bool
}

// A layer time must be measured on every workload: the benchmark's result
// line may not carry a time that reads exactly the same (such as 0) on
// every run. So a probe whose layer the workload gives no input at all
// takes the reference inputs instead, and its note says so: the repro
// workload's evaluations, configurations and exhibits, the margin
// workload's fault models, and the serve workload's requests, all of the
// same seed.
const borrowed = "; reference inputs: the workload gives this layer none"

// referenceInputs are the model layers' reference inputs for seed; the
// serve requests are sent by serverReference.
func referenceInputs(seed uint64) probeInputs {
	in := reproProbeInputs()
	in.models = marginModels(marginOptions(seed, 0))
	return in
}

// own returns the workload's inputs for a layer, or the reference inputs
// and the note saying so when the workload has none.
func own[T any](mine, ref []T) ([]T, string) {
	if len(mine) > 0 {
		return mine, ""
	}
	return ref, borrowed
}

// hitReps repeats each cache-hit call so one span outlasts the clock's
// resolution; the metric is the time per call.
const hitReps = 20

// prober times calls into the layers, each inside a span of its own
// operation.
type prober struct {
	tr  *tracer
	err error
}

// time runs fn reps times inside one span and returns the time per call.
func (p *prober) time(name, tag string, reps int, fn func() error) time.Duration {
	sp := p.tr.begin(name, tag, p.tr.newOp(), 0)
	start := time.Now()
	for k := 0; k < reps; k++ {
		if err := fn(); err != nil && p.err == nil {
			p.err = fmt.Errorf("%s: %w", name, err)
		}
	}
	d := time.Since(start)
	sp.end()
	return d / time.Duration(reps)
}

// mean accumulates probe times.
type mean struct {
	total time.Duration
	n     int
}

func (m *mean) add(d time.Duration) { m.total += d; m.n++ }

func (m mean) us() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.total) / float64(m.n) / float64(time.Microsecond)
}

// perLayer reports the per-layer metrics of a traced run: the exact work
// counts and hit ratios of the untraced pass, handler and transport times
// from the traced pass's spans, and probe calls into each layer on the
// workload's own inputs. The probes clear caches, so they run last.
func perLayer(ctx context.Context, o options, plain *pass, tr *tracer) (*metricSet, error) {
	s := &metricSet{}
	w := plain.meter.work
	in, ref := plain.probe, referenceInputs(o.seed)
	passSpans := tr.snapshot()
	p := &prober{tr: tr}

	// jsim: the margin sweep's transients and Fig. 7's gate extraction.
	models, note := own(in.models, ref.models)
	simcache.Clear("jsim")
	s0 := jsimSteps.Value()
	margins := p.time("jsim.BiasMarginsFaultedBatch", "cold", 1, func() error {
		_, err := jsim.BiasMarginsFaultedBatch(ctx, models)
		return err
	})
	steps := jsimSteps.Value() - s0
	simcache.Clear("jsim")
	extract := p.time("jsim.ExtractJTLParams", "cold", 1, func() error {
		_, err := jsim.ExtractJTLParams(ctx)
		return err
	})
	exhibitNote := ""
	if !in.exhibits {
		exhibitNote = borrowed
	}
	s.add("jsim.margins_ms", ms(margins), "ms", fmt.Sprintf("BiasMarginsFaultedBatch on %d fault models, cold%s", len(models), note))
	s.add("jsim.steps", float64(w.JSIMSteps), "count", "RK4 steps of the untraced run")
	s.add("jsim.ns_per_step", float64(margins)/float64(max(steps, 1)), "ns", "in the margins probe"+note)
	s.add("jsim.extract_ms", ms(extract), "ms", "ExtractJTLParams, cold"+exhibitNote)

	// estimator.
	configs, note := own(in.configs, ref.configs)
	var estCold mean
	for _, c := range configs {
		simcache.Clear("estimator")
		estCold.add(p.time("estimator.Estimate", "cold", 1, func() error {
			_, err := estimator.Estimate(ctx, c)
			return err
		}))
	}
	s.add("estimator.cold_us", estCold.us(), "us", fmt.Sprintf("mean of %d configurations%s", estCold.n, note))
	s.add("estimator.hit_ratio", w.family("estimator").hitRatio(), "ratio", "")

	// mapper: every distinct (shape, geometry) tile plan, cold.
	var sfqEvals, cmosEvals, refCMOS []evalInput
	for _, e := range in.evals {
		if e.design.Platform == core.SFQ {
			sfqEvals = append(sfqEvals, e)
		} else {
			cmosEvals = append(cmosEvals, e)
		}
	}
	for _, e := range ref.evals {
		if e.design.Platform == core.CMOS {
			refCMOS = append(refCMOS, e)
		}
	}
	simcache.Clear("mapper.tiles")
	var tiles mean
	seenPlan := map[string]bool{}
	for _, e := range sfqEvals {
		c := e.design.SFQ
		for _, l := range e.net.ComputeLayers() {
			k := simcache.TilesKey(l.Shape(), c.ArrayHeight, c.ArrayWidth, c.Registers)
			if seenPlan[k] {
				continue
			}
			seenPlan[k] = true
			tiles.add(p.time("mapper.Tiles", "cold", 1, func() error {
				mapper.Tiles(l, c.ArrayHeight, c.ArrayWidth, c.Registers)
				return nil
			}))
		}
	}
	s.add("mapper.tiles_us", tiles.us(), "us", fmt.Sprintf("mean of %d tile plans", tiles.n))
	s.add("mapper.tiles_hit_ratio", w.family("mapper.tiles").hitRatio(), "ratio", "")

	// npusim: cold walks (estimator warm), then layer-tier-warm walks.
	simulate := func(e evalInput) func() error {
		return func() error {
			_, err := npusim.Simulate(ctx, e.design.SFQ, e.net, e.batch)
			return err
		}
	}
	scale := func(e evalInput) func() error {
		return func() error {
			_, err := scalesim.Simulate(ctx, e.design.CMOS, e.net, e.batch)
			return err
		}
	}
	evaluate := func(e evalInput) func() error {
		return func() error {
			_, err := core.Evaluate(ctx, e.design, e.net, e.batch)
			return err
		}
	}
	for _, e := range sfqEvals {
		if _, err := estimator.Estimate(ctx, e.design.SFQ); err != nil {
			return nil, err
		}
	}
	var npuCold, npuLayerWarm mean
	for _, e := range sfqEvals {
		for _, f := range []string{"npusim", "npusim.layer", "mapper.tiles"} {
			simcache.Clear(f)
		}
		npuCold.add(p.time("npusim.Simulate", "cold", 1, simulate(e)))
	}
	for _, e := range sfqEvals {
		if err := simulate(e)(); err != nil {
			return nil, err
		}
	}
	for _, e := range sfqEvals {
		simcache.Clear("npusim")
		npuLayerWarm.add(p.time("npusim.Simulate", "layerwarm", 1, simulate(e)))
	}
	s.add("npusim.cold_us", npuCold.us(), "us", fmt.Sprintf("mean of %d simulations, estimator warm", npuCold.n))
	s.add("npusim.layerwarm_us", npuLayerWarm.us(), "us", "whole-simulation tier cleared, layer tier warm")
	walks := w.family("npusim.layer").Misses
	s.add("npusim.layer_sites", float64(w.LayerSites), "count", "")
	s.add("npusim.layer_walks", float64(walks), "count", "layer-tier misses")
	dedup := 0.0
	if walks > 0 {
		dedup = float64(w.LayerSites) / float64(walks)
	}
	s.add("npusim.dedup_ratio", dedup, "ratio", "layer sites per walk")

	// scalesim.
	cmosEvals, scaleNote := own(cmosEvals, refCMOS)
	var scaleCold mean
	for _, e := range cmosEvals {
		simcache.Clear("scalesim")
		simcache.Clear("scalesim.layer")
		scaleCold.add(p.time("scalesim.Simulate", "cold", 1, scale(e)))
	}

	// The hit path, with every evaluation cached first.
	for _, e := range append(in.evals, cmosEvals...) {
		if err := evaluate(e)(); err != nil {
			return nil, err
		}
	}
	var npuHit, scaleHit, simKey, evalHit mean
	for _, e := range sfqEvals {
		npuHit.add(p.time("npusim.Simulate", "hit", hitReps, simulate(e)))
		simKey.add(p.time("simcache.SimKey", "", hitReps, func() error {
			simcache.SimKey(e.design.SFQ, e.net, e.batch)
			return nil
		}))
	}
	for _, e := range cmosEvals {
		scaleHit.add(p.time("scalesim.Simulate", "hit", hitReps, scale(e)))
	}
	for _, e := range in.evals {
		evalHit.add(p.time("core.Evaluate", "hit", hitReps, evaluate(e)))
	}
	s.add("npusim.hit_us", npuHit.us(), "us", "per call, cached")
	s.add("scalesim.hit_us", scaleHit.us(), "us", "per call, cached"+scaleNote)
	s.add("simcache.simkey_us", simKey.us(), "us", "per call")
	s.add("core.evaluate_hit_us", evalHit.us(), "us", "per call, cached")
	s.add("npusim.hit_ratio", w.family("npusim").hitRatio(), "ratio", "")
	s.add("scalesim.hit_ratio", w.family("scalesim").hitRatio(), "ratio", "")
	s.add("scalesim.cold_us", scaleCold.us(), "us", fmt.Sprintf("mean of %d simulations%s", scaleCold.n, scaleNote))

	s.add("simcache.entries", float64(w.Entries), "count", "resident at the end, all families")
	s.add("parallel.tasks", float64(w.PoolTasks), "count", "")
	s.add("parallel.queue_wait_ms", plain.meter.queueWaitS*1e3, "ms", "summed over tasks")

	// experiments: each exhibit from empty caches, in IDs() order.
	exhibit := map[string]time.Duration{}
	var other time.Duration
	for _, id := range experiments.IDs() {
		simcache.ClearAll()
		d := p.time("experiments.Run", id, 1, func() error {
			_, err := experiments.Run(ctx, id)
			return err
		})
		switch id {
		case "fig7", "fig20", "fig21", "fig22", "fig23":
			exhibit[id] = d
		default:
			other += d
		}
	}
	for _, id := range []string{"fig7", "fig20", "fig21", "fig22", "fig23"} {
		s.add("experiments."+id+"_ms", ms(exhibit[id]), "ms", "cold"+exhibitNote)
	}
	s.add("experiments.other_ms", ms(other), "ms", "the other exhibits, each cold"+exhibitNote)

	// server: handler time per request class and what the client saw
	// beyond it, from the traced run's requests; a class the workload did
	// not send is timed on the serve workload's requests.
	handler, transport := serverTimes(passSpans)
	notes := map[string]string{}
	missing := transport.n == 0
	for _, m := range handler {
		missing = missing || m.n == 0
	}
	if missing {
		spans, err := serverReference(ctx, o.seed)
		if err != nil {
			return nil, err
		}
		refHandler, refTransport := serverTimes(spans)
		for class, m := range handler {
			if m.n == 0 {
				handler[class], notes[class] = refHandler[class], borrowed
			}
		}
		if transport.n == 0 {
			transport, notes["transport"] = refTransport, borrowed
		}
	}
	s.add("server.evaluate_named_us", handler[classNamed].us(), "us", "handler time"+notes[classNamed])
	s.add("server.evaluate_custom_us", handler[classCustom].us(), "us", "handler time"+notes[classCustom])
	s.add("server.estimate_us", handler[classEstimate].us(), "us", "handler time"+notes[classEstimate])
	s.add("server.transport_us", transport.us(), "us", "client latency minus handler time"+notes["transport"])
	s.add("server.shed", float64(plain.meter.shed), "count", "")
	s.add("server.degraded", float64(plain.meter.degraded), "count", "")
	s.add("runtime.gc_cpu_s", plain.meter.gcCPUS, "s", "GC CPU during the untraced run")
	return s, p.err
}

// serverTimes sums the server.Handler spans by request class, and the
// client.request spans' self time, the part of the client latency outside
// the handler.
func serverTimes(spans []span) (handler map[string]*mean, transport mean) {
	handler = map[string]*mean{classNamed: {}, classCustom: {}, classEstimate: {}}
	for _, sp := range spans {
		if m, ok := handler[sp.Tag]; ok && sp.Name == "server.Handler" {
			m.add(sp.dur())
		}
	}
	for _, lt := range selfTimes(spans) {
		if lt.Name == "client.request" {
			transport = mean{total: lt.Self, n: lt.Count}
		}
	}
	return handler, transport
}

// serverReference sends the serve workload's working set for seed through
// a traced service, once to fill the caches and once traced, so the spans
// time the hit path, and returns the spans.
func serverReference(ctx context.Context, seed uint64) ([]span, error) {
	ws := newWorkingSet(seed)
	tr := newTracer()
	svc, err := startService(ctx, tr)
	if err != nil {
		return nil, err
	}
	for _, t := range []*tracer{nil, tr} {
		for j := 0; j < ws.size(); j++ {
			in := ws.input(j)
			if _, _, ok := svc.do(ctx, t, in); !ok {
				_ = svc.stop() // the failed request is the error to report
				return nil, fmt.Errorf("server reference: %s %.80s failed", in.path, in.body)
			}
		}
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	return tr.snapshot(), nil
}
