// Request and response shapes of the evaluation service's JSON API, and
// their validation. Decoding is strict (unknown fields are errors) and
// validation bounds every dimension, so a malformed or adversarial request
// is rejected before any simulation work is admitted to the pool — the fuzz
// battery (fuzz_test.go) drives arbitrary bytes through these decoders.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/estimator"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// techFor maps the wire-level ersfq flag onto the biasing technology.
func techFor(ersfq bool) sfq.Technology {
	if ersfq {
		return sfq.ERSFQ
	}
	return sfq.RSFQ
}

// Request body and custom-network bounds: generous multiples of the paper's
// workloads, tight enough that a validated request cannot allocate
// pathological amounts of memory or simulate for unbounded time. The
// per-dimension bounds alone still admit layers far beyond any CNN, so a
// custom network is also capped at 2^28 total weights and 2^44 MACs per
// input (VGG16: 1.38e8 weights, 1.6e10 MACs); with maxBatch that keeps
// batch × MACs below 2^60, clear of int64 overflow in the cycle counts.
const (
	maxBodyBytes = 1 << 20 // 1 MiB of JSON per request
	maxLayers    = 512     // deepest evaluation CNN is 58 compute layers
	maxLayerDim  = 1 << 14 // H, W, C, R, S, M per layer
	maxWeights   = 1 << 28 // total weights of a custom network
	maxMACs      = 1 << 44 // total MACs of a custom network per input
	maxBatch     = 1 << 16
	maxArrayDim  = 1 << 12 // PE array height/width (paper max: 256)
	maxRegisters = 1 << 8  // registers per PE (paper max: 8)
	maxBufBytes  = 1 << 30 // any single buffer capacity (paper max: 48 MB total)
	maxChunks    = 1 << 16 // buffer division degree (paper max: 256)
	maxSweepPts  = 64      // sweep points per explore request
)

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// LayerSpec is one custom-network layer in the request schema.
type LayerSpec struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // conv | dwconv | fc | pool
	H      int    `json:"h,omitempty"`
	W      int    `json:"w,omitempty"`
	C      int    `json:"c,omitempty"`
	R      int    `json:"r,omitempty"`
	S      int    `json:"s,omitempty"`
	M      int    `json:"m,omitempty"`
	Stride int    `json:"stride,omitempty"`
	Pad    int    `json:"pad,omitempty"`
}

// NetworkSpec is a custom workload in the request schema.
type NetworkSpec struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// EvaluateRequest asks for one (design, workload, batch) evaluation.
// Exactly one of Workload (a named evaluation CNN) or Network (a custom
// workload) must be set. Batch 0 selects the design's maximum on-chip batch.
type EvaluateRequest struct {
	Design   string       `json:"design"`
	Workload string       `json:"workload,omitempty"`
	Network  *NetworkSpec `json:"network,omitempty"`
	Batch    int          `json:"batch,omitempty"`
}

// EvaluationResponse is the unified evaluation result in SI units.
type EvaluationResponse struct {
	Design        string  `json:"design"`
	Network       string  `json:"network"`
	Batch         int     `json:"batch"`
	FrequencyHz   float64 `json:"frequencyHz"`
	PeakMACs      float64 `json:"peakMACsPerS"`
	Throughput    float64 `json:"throughputMACsPerS"`
	TimeS         float64 `json:"timeS"`
	PEUtilization float64 `json:"peUtilization"`
	TotalCycles   int64   `json:"totalCycles"`
	MACs          int64   `json:"macs"`
	PrepFraction  float64 `json:"prepFraction"`
	ChipPowerW    float64 `json:"chipPowerW"`
	// Degraded marks a response served by the analytical roofline fallback
	// after the simulation faulted; DegradedReason says why. Both are absent
	// from healthy responses, which stay byte-identical to before.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
}

// ConfigSpec is a full SFQ NPU configuration in the request schema,
// mirroring arch.Config field for field.
type ConfigSpec struct {
	Name             string  `json:"name,omitempty"`
	ArrayHeight      int     `json:"arrayHeight"`
	ArrayWidth       int     `json:"arrayWidth"`
	Registers        int     `json:"registers"`
	IfmapBufBytes    int     `json:"ifmapBufBytes"`
	IfmapChunks      int     `json:"ifmapChunks"`
	OutputBufBytes   int     `json:"outputBufBytes"`
	OutputChunks     int     `json:"outputChunks"`
	IntegratedOutput bool    `json:"integratedOutput,omitempty"`
	PsumBufBytes     int     `json:"psumBufBytes,omitempty"`
	WeightBufBytes   int     `json:"weightBufBytes"`
	ERSFQ            bool    `json:"ersfq,omitempty"`
	MemoryBandwidth  float64 `json:"memoryBandwidth,omitempty"` // bytes/s, 0 = paper default
}

// EstimateRequest asks the SFQ estimator for frequency/power/area of a
// named SFQ design or a fully custom configuration (exactly one of the two).
type EstimateRequest struct {
	Design string      `json:"design,omitempty"`
	Config *ConfigSpec `json:"config,omitempty"`
}

// UnitEstimateResponse is one unit of the estimator's breakdown.
type UnitEstimateResponse struct {
	Name          string  `json:"name"`
	FrequencyHz   float64 `json:"frequencyHz"`
	StaticPowerW  float64 `json:"staticPowerW"`
	AreaM2        float64 `json:"areaM2"`
	JJs           int     `json:"jjs"`
	AccessEnergyJ float64 `json:"accessEnergyJ"`
}

// EstimateResponse is the architecture-level estimate.
type EstimateResponse struct {
	Name         string                 `json:"name"`
	FrequencyHz  float64                `json:"frequencyHz"`
	StaticPowerW float64                `json:"staticPowerW"`
	AreaNativeM2 float64                `json:"areaNativeM2"`
	Area28nmM2   float64                `json:"area28nmM2"`
	TotalJJs     int64                  `json:"totalJJs"`
	PeakMACs     float64                `json:"peakMACsPerS"`
	Units        []UnitEstimateResponse `json:"units"`
}

// ExploreRequest asks for one design-space sweep: "division" (Fig. 20),
// "width" (Fig. 21) or "registers" (Fig. 22).
type ExploreRequest struct {
	Sweep string `json:"sweep"`
	// Degrees are the buffer division degrees (sweep=division).
	Degrees []int `json:"degrees,omitempty"`
	// Width is the PE-array width (sweep=registers): one of Fig. 21's
	// widths, 256, 128, 64, 32 or 16.
	Width int `json:"width,omitempty"`
	// Registers are the registers-per-PE counts (sweep=registers).
	Registers []int `json:"registers,omitempty"`
}

// SweepPointResponse is one sweep point, normalised to the Baseline.
type SweepPointResponse struct {
	Label       string  `json:"label"`
	SingleBatch float64 `json:"singleBatchSpeedup"`
	MaxBatch    float64 `json:"maxBatchSpeedup"`
	AreaRel     float64 `json:"areaRelative"`
}

// ExploreResponse is the sweep result.
type ExploreResponse struct {
	Sweep  string               `json:"sweep"`
	Points []SweepPointResponse `json:"points"`
}

// DesignResponse is one design point of GET /v1/designs.
type DesignResponse struct {
	Name        string `json:"name"`
	Platform    string `json:"platform"` // sfq | cmos
	ArrayHeight int    `json:"arrayHeight"`
	ArrayWidth  int    `json:"arrayWidth"`
	Registers   int    `json:"registers,omitempty"`
	BufferBytes int64  `json:"bufferBytes"`
}

// WorkloadResponse is one evaluation CNN of GET /v1/workloads.
type WorkloadResponse struct {
	Name        string `json:"name"`
	Layers      int    `json:"layers"`
	TotalMACs   int64  `json:"totalMACs"`
	WeightBytes int64  `json:"weightBytes"`
}

// decodeJSON strictly decodes one JSON object from r into v: unknown fields,
// trailing data and oversized bodies are all errors.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid JSON request: trailing data after object")
	}
	return nil
}

// layerKind maps the wire kind names onto workload kinds.
func layerKind(s string) (workload.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "conv":
		return workload.Conv, nil
	case "dwconv", "depthwise":
		return workload.DepthwiseConv, nil
	case "fc", "fullyconnected":
		return workload.FullyConnected, nil
	case "pool":
		return workload.Pool, nil
	default:
		return 0, fmt.Errorf("unknown layer kind %q (want conv, dwconv, fc or pool)", s)
	}
}

// toNetwork validates a custom network spec and converts it to a workload.
func (n *NetworkSpec) toNetwork() (workload.Network, error) {
	if n.Name == "" {
		return workload.Network{}, fmt.Errorf("network: name is required")
	}
	if len(n.Layers) == 0 {
		return workload.Network{}, fmt.Errorf("network %q: at least one layer is required", n.Name)
	}
	if len(n.Layers) > maxLayers {
		return workload.Network{}, fmt.Errorf("network %q: %d layers exceeds the limit of %d",
			n.Name, len(n.Layers), maxLayers)
	}
	layers := make([]workload.Layer, 0, len(n.Layers))
	for i, ls := range n.Layers {
		kind, err := layerKind(ls.Kind)
		if err != nil {
			return workload.Network{}, fmt.Errorf("network %q layer %d: %w", n.Name, i, err)
		}
		for _, d := range []int{ls.H, ls.W, ls.C, ls.R, ls.S, ls.M, ls.Stride, ls.Pad} {
			if d < 0 || d > maxLayerDim {
				return workload.Network{}, fmt.Errorf("network %q layer %d: dimension %d out of [0, %d]",
					n.Name, i, d, maxLayerDim)
			}
		}
		l := workload.Layer{
			Name: ls.Name, Kind: kind,
			H: ls.H, W: ls.W, C: ls.C,
			R: ls.R, S: ls.S, M: ls.M,
			Stride: ls.Stride, Pad: ls.Pad,
		}
		switch kind {
		case workload.DepthwiseConv:
			if l.M == 0 {
				l.M = l.C
			}
		case workload.FullyConnected:
			if l.H == 0 && l.W == 0 {
				l.H, l.W = 1, 1
			}
			if l.R == 0 && l.S == 0 {
				l.R, l.S = 1, 1
			}
		case workload.Pool:
			if l.M == 0 {
				l.M = l.C
			}
			if l.S == 0 {
				l.S = l.R
			}
		}
		if l.Stride == 0 {
			l.Stride = 1
		}
		layers = append(layers, l)
	}
	net := workload.Network{Name: n.Name, Layers: layers}
	if err := net.Validate(); err != nil {
		return workload.Network{}, err
	}
	// Whole-network totals, checked layer by layer so neither running sum
	// can wrap. A layer within the weight cap has at most 2^28 weights, so
	// its MAC count cannot overflow either.
	var weights, macs int64
	for i, l := range layers {
		w := l.WeightBytes()
		if w > maxWeights-weights {
			return workload.Network{}, fmt.Errorf("network %q: weights exceed the limit of %d at layer %d",
				n.Name, maxWeights, i)
		}
		weights += w
		m := l.MACs()
		if m > maxMACs-macs {
			return workload.Network{}, fmt.Errorf("network %q: MACs per input exceed the limit of %d at layer %d",
				n.Name, maxMACs, i)
		}
		macs += m
	}
	return net, nil
}

// resolve validates an evaluate request and resolves it to simulator inputs.
func (req *EvaluateRequest) resolve() (core.Design, workload.Network, error) {
	if req.Batch < 0 || req.Batch > maxBatch {
		return core.Design{}, workload.Network{}, fmt.Errorf("batch %d out of [0, %d]", req.Batch, maxBatch)
	}
	if req.Design == "" {
		return core.Design{}, workload.Network{}, fmt.Errorf("design is required")
	}
	d, err := core.DesignByName(req.Design)
	if err != nil {
		return core.Design{}, workload.Network{}, err
	}
	var net workload.Network
	switch {
	case req.Workload != "" && req.Network != nil:
		err = fmt.Errorf("workload and network are mutually exclusive")
	case req.Workload != "":
		net, err = workload.ByName(req.Workload)
	case req.Network != nil:
		net, err = req.Network.toNetwork()
	default:
		err = fmt.Errorf("one of workload or network is required")
	}
	if err != nil {
		return core.Design{}, workload.Network{}, err
	}
	return d, net, nil
}

// toConfig validates a custom configuration spec and converts it.
func (c *ConfigSpec) toConfig() (arch.Config, error) {
	if c.ArrayHeight <= 0 || c.ArrayHeight > maxArrayDim || c.ArrayWidth <= 0 || c.ArrayWidth > maxArrayDim {
		return arch.Config{}, fmt.Errorf("config: array %dx%d out of [1, %d]", c.ArrayHeight, c.ArrayWidth, maxArrayDim)
	}
	if c.Registers <= 0 || c.Registers > maxRegisters {
		return arch.Config{}, fmt.Errorf("config: %d registers out of [1, %d]", c.Registers, maxRegisters)
	}
	for _, b := range []int{c.IfmapBufBytes, c.OutputBufBytes, c.PsumBufBytes, c.WeightBufBytes} {
		if b < 0 || b > maxBufBytes {
			return arch.Config{}, fmt.Errorf("config: buffer capacity %d out of [0, %d]", b, maxBufBytes)
		}
	}
	for _, ch := range []int{c.IfmapChunks, c.OutputChunks} {
		if ch < 0 || ch > maxChunks {
			return arch.Config{}, fmt.Errorf("config: division degree %d out of [0, %d]", ch, maxChunks)
		}
	}
	name := c.Name
	if name == "" {
		name = "custom"
	}
	cfg := arch.Config{
		Name:        name,
		ArrayHeight: c.ArrayHeight, ArrayWidth: c.ArrayWidth,
		Registers:     c.Registers,
		IfmapBufBytes: c.IfmapBufBytes, IfmapChunks: c.IfmapChunks,
		OutputBufBytes: c.OutputBufBytes, OutputChunks: c.OutputChunks,
		IntegratedOutput: c.IntegratedOutput,
		PsumBufBytes:     c.PsumBufBytes,
		WeightBufBytes:   c.WeightBufBytes,
		Tech:             techFor(c.ERSFQ),
		MemoryBandwidth:  c.MemoryBandwidth,
	}
	if cfg.IfmapChunks == 0 {
		cfg.IfmapChunks = 1
	}
	if cfg.OutputChunks == 0 {
		cfg.OutputChunks = 1
	}
	if cfg.MemoryBandwidth == 0 {
		cfg.MemoryBandwidth = arch.DefaultBandwidth
	}
	if err := cfg.Validate(); err != nil {
		return arch.Config{}, err
	}
	return cfg, nil
}

// resolve validates an estimate request to an SFQ configuration.
func (req *EstimateRequest) resolve() (arch.Config, error) {
	switch {
	case req.Design != "" && req.Config != nil:
		return arch.Config{}, fmt.Errorf("design and config are mutually exclusive")
	case req.Design != "":
		d, err := core.DesignByName(req.Design)
		if err != nil {
			return arch.Config{}, err
		}
		if d.Platform != core.SFQ {
			return arch.Config{}, fmt.Errorf("the estimator models SFQ designs only, not %q", d.Name())
		}
		return d.SFQ, nil
	case req.Config != nil:
		return req.Config.toConfig()
	default:
		return arch.Config{}, fmt.Errorf("one of design or config is required")
	}
}

// validate checks an explore request's sweep parameters.
func (req *ExploreRequest) validate() error {
	switch strings.ToLower(req.Sweep) {
	case "division":
		if len(req.Degrees) == 0 {
			return fmt.Errorf("sweep=division requires degrees")
		}
		if len(req.Degrees) > maxSweepPts {
			return fmt.Errorf("%d degrees exceeds the limit of %d", len(req.Degrees), maxSweepPts)
		}
		for _, d := range req.Degrees {
			if d < 1 || d > maxChunks {
				return fmt.Errorf("division degree %d out of [1, %d]", d, maxChunks)
			}
		}
	case "width":
		// no parameters: the paper's five resource-balancing points
	case "registers":
		// The width is core.ExploreRegisters' to check: any Fig. 21 width.
		if len(req.Registers) == 0 {
			return fmt.Errorf("sweep=registers requires registers")
		}
		if len(req.Registers) > maxSweepPts {
			return fmt.Errorf("%d register counts exceeds the limit of %d", len(req.Registers), maxSweepPts)
		}
		for _, r := range req.Registers {
			if r < 1 || r > maxRegisters {
				return fmt.Errorf("register count %d out of [1, %d]", r, maxRegisters)
			}
		}
	default:
		return fmt.Errorf("unknown sweep %q (want division, width or registers)", req.Sweep)
	}
	return nil
}

// evaluationResponse converts a unified evaluation.
func evaluationResponse(ev *core.Evaluation) EvaluationResponse {
	return EvaluationResponse{
		Design: ev.Design, Network: ev.Network, Batch: ev.Batch,
		FrequencyHz: ev.Frequency, PeakMACs: ev.PeakMACs,
		Throughput: ev.Throughput, TimeS: ev.Time,
		PEUtilization: ev.PEUtilization,
		TotalCycles:   ev.TotalCycles, MACs: ev.MACs,
		PrepFraction: ev.PrepFraction, ChipPowerW: ev.ChipPower,
	}
}

// estimateResponse converts an estimator result.
func estimateResponse(res *estimator.Result) EstimateResponse {
	out := EstimateResponse{
		Name:        res.Config.Name,
		FrequencyHz: res.Frequency, StaticPowerW: res.StaticPower,
		AreaNativeM2: res.AreaNative, Area28nmM2: res.Area28nm,
		TotalJJs: res.TotalJJs, PeakMACs: res.PeakMACs,
	}
	for _, u := range res.Units {
		out.Units = append(out.Units, UnitEstimateResponse{
			Name: u.Name, FrequencyHz: u.Frequency,
			StaticPowerW: u.StaticPower, AreaM2: u.Area,
			JJs: u.JJs, AccessEnergyJ: u.AccessEnergy,
		})
	}
	return out
}

// sweepResponse converts sweep points.
func sweepResponse(sweep string, pts []core.SweepPoint) ExploreResponse {
	out := ExploreResponse{Sweep: strings.ToLower(sweep), Points: make([]SweepPointResponse, 0, len(pts))}
	for _, p := range pts {
		out.Points = append(out.Points, SweepPointResponse{
			Label: p.Label, SingleBatch: p.SingleBatch, MaxBatch: p.MaxBatch, AreaRel: p.AreaRel,
		})
	}
	return out
}
