package main

import (
	"encoding/json"
	"fmt"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/server"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// The request generators. Request i of a run is a pure function of the
// seed and i: each request draws from its own splitmix64 stream keyed by
// (seed, stream, i), so the generators hold no request list and any
// request can be rebuilt on demand (the serve-unique replay does).

// Stream ids keep the draws of different request kinds independent.
const (
	streamPick uint64 = iota + 1
	streamBatches
	streamCustomNet
	streamConfig
	streamUnique
	streamSample
	streamFault
)

// splitmix64 finaliser.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 sequence.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64, i int) rng {
	return rng{s: mix(seed ^ mix(stream<<32^mix(uint64(i))))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn draws from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between draws from [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }

// Request classes, reported separately by the traced run.
const (
	classNamed    = "evaluate_named"
	classCustom   = "evaluate_custom"
	classEstimate = "estimate"
)

// input is one generated request: its endpoint and class, the JSON body the
// client sends, and the same inputs in typed form for the per-layer probes,
// which call the model packages directly.
type input struct {
	path  string
	class string
	body  []byte
	// design, net and batch are set for evaluate requests.
	design string
	net    workload.Network
	batch  int
	// config is the configuration an estimate request resolves to.
	config arch.Config
}

// designNames lists every design the service resolves by name: the
// evaluation design points plus the ERSFQ variant of each SFQ design.
func designNames() []string {
	var names, ersfq []string
	for _, d := range core.DesignPoints() {
		names = append(names, d.Name())
		if d.Platform == core.SFQ {
			ersfq = append(ersfq, "ERSFQ-"+d.Name())
		}
	}
	return append(names, ersfq...)
}

// sfqDesignNames is designNames without the CMOS reference, the designs
// /v1/estimate accepts by name.
func sfqDesignNames() []string {
	var out []string
	for _, n := range designNames() {
		if d, err := core.DesignByName(n); err == nil && d.Platform == core.SFQ {
			out = append(out, n)
		}
	}
	return out
}

func evaluateInput(class, design string, net workload.Network, named bool, batch int) input {
	req := server.EvaluateRequest{Design: design, Batch: batch}
	if named {
		req.Workload = net.Name
	} else {
		req.Network = networkSpec(net)
	}
	return input{path: "/v1/evaluate", class: class, body: mustJSON(req), design: design, net: net, batch: batch}
}

func estimateByName(design string) input {
	d, err := core.DesignByName(design)
	if err != nil {
		panic(err) // names come from designNames
	}
	return input{path: "/v1/estimate", class: classEstimate,
		body: mustJSON(server.EstimateRequest{Design: design}), config: d.SFQ}
}

func estimateConfig(cfg arch.Config) input {
	spec := &server.ConfigSpec{
		Name:        cfg.Name,
		ArrayHeight: cfg.ArrayHeight, ArrayWidth: cfg.ArrayWidth,
		Registers:     cfg.Registers,
		IfmapBufBytes: cfg.IfmapBufBytes, IfmapChunks: cfg.IfmapChunks,
		OutputBufBytes: cfg.OutputBufBytes, OutputChunks: cfg.OutputChunks,
		IntegratedOutput: cfg.IntegratedOutput,
		PsumBufBytes:     cfg.PsumBufBytes,
		WeightBufBytes:   cfg.WeightBufBytes,
		ERSFQ:            cfg.Tech == sfq.ERSFQ,
		MemoryBandwidth:  cfg.MemoryBandwidth,
	}
	return input{path: "/v1/estimate", class: classEstimate,
		body: mustJSON(server.EstimateRequest{Config: spec}), config: cfg}
}

var kindNames = map[workload.Kind]string{
	workload.Conv:           "conv",
	workload.DepthwiseConv:  "dwconv",
	workload.FullyConnected: "fc",
	workload.Pool:           "pool",
}

// networkSpec renders a network with every field explicit, so the service
// applies none of its defaults and resolves exactly net.
func networkSpec(net workload.Network) *server.NetworkSpec {
	spec := &server.NetworkSpec{Name: net.Name, Layers: make([]server.LayerSpec, len(net.Layers))}
	for i, l := range net.Layers {
		spec.Layers[i] = server.LayerSpec{
			Name: l.Name, Kind: kindNames[l.Kind],
			H: l.H, W: l.W, C: l.C, R: l.R, S: l.S, M: l.M,
			Stride: l.Stride, Pad: l.Pad,
		}
	}
	return spec
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always encode
	}
	return b
}

// Working-set dimensions of the serve workload. They, like the other
// weights and ranges of both generators, are assumptions: NOTES.md gives
// the reason for each.
const (
	wsBatches    = 3  // batch sizes per named (design, CNN) pair
	wsCustomNets = 24 // custom networks cut from the CNNs
	wsConfigs    = 16 // custom configurations for /v1/estimate
)

// workingSet is the serve workload's bounded, seeded input set: every named
// design × the six CNNs × wsBatches batch sizes, a pool of custom networks
// built from prefixes of the CNNs, the SFQ designs by name on /v1/estimate,
// and a pool of custom configurations. Which batch sizes, prefixes and
// configurations it holds depends on the seed; its size does not.
type workingSet struct {
	seed    uint64
	designs []string
	sfq     []string
	cnns    []workload.Network
	batches [wsBatches]int
}

func newWorkingSet(seed uint64) *workingSet {
	w := &workingSet{seed: seed, designs: designNames(), sfq: sfqDesignNames(), cnns: workload.All()}
	r := newRNG(seed, streamBatches, 0)
	// Batch 1, a seeded mid-size batch, and 0 (the design's maximum).
	w.batches = [wsBatches]int{1, r.between(2, 32), 0}
	return w
}

func (w *workingSet) namedCount() int { return len(w.designs) * len(w.cnns) * wsBatches }

// size is the number of distinct inputs.
func (w *workingSet) size() int {
	return w.namedCount() + wsCustomNets + len(w.sfq) + wsConfigs
}

// pick maps request i of the warm phase onto a working-set index. It draws
// the request class first, each of the three with the same share, so each
// class's handler weighs the same in the warm latency, and then an entry of
// that class.
func (w *workingSet) pick(i int) int {
	r := newRNG(w.seed, streamPick, i)
	named, custom := w.namedCount(), wsCustomNets
	switch r.intn(3) {
	case 0:
		return r.intn(named)
	case 1:
		return named + r.intn(custom)
	default:
		return named + custom + r.intn(w.size()-named-custom)
	}
}

// input returns working-set entry j.
func (w *workingSet) input(j int) input {
	if j < w.namedCount() {
		b := j % wsBatches
		c := j / wsBatches % len(w.cnns)
		d := j / wsBatches / len(w.cnns)
		return evaluateInput(classNamed, w.designs[d], w.cnns[c], true, w.batches[b])
	}
	j -= w.namedCount()
	if j < wsCustomNets {
		r := newRNG(w.seed, streamCustomNet, j)
		base := pick(&r, w.cnns)
		n := r.between(2, boundedPrefix(base))
		net := workload.Network{
			Name:   fmt.Sprintf("ws%d-net%d-%s-%d", w.seed, j, base.Name, n),
			Layers: append([]workload.Layer(nil), base.Layers[:n]...),
		}
		return evaluateInput(classCustom, pick(&r, w.designs), net, false, r.between(1, 16))
	}
	j -= wsCustomNets
	if j < len(w.sfq) {
		return estimateByName(w.sfq[j])
	}
	j -= len(w.sfq)
	r := newRNG(w.seed, streamConfig, j)
	return estimateConfig(randomConfig(&r, fmt.Sprintf("ws%d-cfg%d", w.seed, j)))
}

// maxLayerDim is the service's bound on every layer dimension.
const maxLayerDim = 1 << 14

// boundedPrefix is how many leading layers of net stay within maxLayerDim
// (VGG16's first classifier layer, for one, reads 25088 inputs).
func boundedPrefix(net workload.Network) int {
	for i, l := range net.Layers {
		for _, d := range []int{l.H, l.W, l.C, l.R, l.S, l.M, l.Stride, l.Pad} {
			if d > maxLayerDim {
				return i
			}
		}
	}
	return len(net.Layers)
}

// randomConfig draws a valid SFQ NPU configuration around the paper's
// design space.
func randomConfig(r *rng, name string) arch.Config {
	c := arch.Config{
		Name:        name,
		ArrayHeight: pick(r, []int{64, 128, 256}),
		ArrayWidth:  pick(r, []int{32, 64, 128, 256}),
		Registers:   r.between(1, 8),
		IfmapChunks: pick(r, []int{1, 4, 16, 64}), OutputChunks: pick(r, []int{1, 4, 16, 64, 256}),
		IfmapBufBytes:   r.between(4, 32) * arch.MB,
		OutputBufBytes:  r.between(4, 32) * arch.MB,
		WeightBufBytes:  r.between(16, 256) * arch.KB,
		Tech:            pick(r, []sfq.Technology{sfq.RSFQ, sfq.ERSFQ}),
		MemoryBandwidth: arch.DefaultBandwidth,
	}
	if r.intn(2) == 0 {
		c.IntegratedOutput = true
	} else {
		c.PsumBufBytes = r.between(4, 16) * arch.MB
	}
	return c
}

// uniqueSet generates the serve-unique stream: every request carries a
// network or configuration no earlier request used, named after the seed
// and the request index, so no whole-simulation key repeats within a run.
type uniqueSet struct {
	seed    uint64
	designs []string
}

func newUniqueSet(seed uint64) *uniqueSet {
	return &uniqueSet{seed: seed, designs: designNames()}
}

// sampleEvery sets the share of serve-unique requests replayed after the
// timed phase.
const sampleEvery = 8

// sampled reports whether request i is replayed after the timed phase.
func (u *uniqueSet) sampled(i int) bool {
	return mix(u.seed^mix(streamSample<<32^uint64(i)))%sampleEvery == 0
}

// request returns request i: three in four evaluate a new CNN-like network
// on a named design, the rest estimate a new configuration. The 3:1 split
// keeps the median latency inside the evaluation cluster (NOTES.md).
func (u *uniqueSet) request(i int) input {
	r := newRNG(u.seed, streamUnique, i)
	name := fmt.Sprintf("u%d-%d", u.seed, i)
	if r.intn(4) == 0 {
		return estimateConfig(randomConfig(&r, name))
	}
	return evaluateInput(classCustom, pick(&r, u.designs), randomNetwork(&r, name), false, r.between(1, 64))
}

// randomNetwork draws a CNN-like chain: convolutions of mixed kernel sizes
// and widths with occasional depthwise and pooling layers and strided
// downsampling, ending in a classifier. Every layer reads the previous
// layer's output, so the network validates.
func randomNetwork(r *rng, name string) workload.Network {
	hw := pick(r, []int{32, 56, 64, 96, 112, 128, 160, 224})
	c := 3
	n := r.between(4, 16)
	layers := make([]workload.Layer, 0, n+1)
	for k := 0; k < n; k++ {
		l := workload.Layer{Name: fmt.Sprintf("l%d", k), H: hw, W: hw, C: c, Stride: 1}
		switch x := r.intn(10); {
		case x == 8 && c > 3:
			l.Kind, l.R, l.M, l.Pad = workload.DepthwiseConv, 3, c, 1
			if hw >= 16 && r.intn(2) == 0 {
				l.Stride = 2
			}
		case x == 9 && hw >= 8:
			l.Kind, l.R, l.M, l.Stride = workload.Pool, 2, c, 2
		default:
			l.Kind = workload.Conv
			l.R = pick(r, []int{1, 3, 3, 3, 5, 7})
			l.M = 8 * r.between(2, 64)
			l.Pad = l.R / 2
			if hw >= 16 && r.intn(3) == 0 {
				l.Stride = 2
			}
		}
		l.S = l.R
		layers = append(layers, l)
		hw, c = l.OutH(), l.M
	}
	layers = append(layers, workload.Layer{Name: "fc", Kind: workload.FullyConnected,
		H: 1, W: 1, C: c, R: 1, S: 1, M: r.between(10, 1000), Stride: 1})
	return workload.Network{Name: name, Layers: layers}
}
