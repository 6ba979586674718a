package experiments

import (
	"context"
	"fmt"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/jsim"
	"supernpu/internal/npusim"
	"supernpu/internal/parallel"
	"supernpu/internal/report"
	"supernpu/internal/workload"
)

// MarginSweepOptions configures the bias-margin robustness exhibit. The
// zero value (except Seed) selects the defaults below.
type MarginSweepOptions struct {
	// Seed keys every fault draw; the same seed reproduces the exhibit
	// byte-for-byte.
	Seed int64
	// IcSpreads are the fractional critical-current sigmas to sweep.
	// Default: 0 to 10% in 2% steps.
	IcSpreads []float64
	// PulseDropPerSpread, BitFlipPerSpread and ErosionPerSpread couple the
	// secondary fault rates to the spread: at spread σ the model injects
	// PulseDropPerSpread·σ drops per shift, BitFlipPerSpread·σ flips per
	// MAC and stretches timing by ErosionPerSpread·σ — junctions sitting
	// closer to their margins suffer more thermal events and slower
	// switching. Defaults: 1e-4, 1e-2, 0.5.
	PulseDropPerSpread float64
	BitFlipPerSpread   float64
	ErosionPerSpread   float64
}

func (o *MarginSweepOptions) defaults() {
	if len(o.IcSpreads) == 0 {
		o.IcSpreads = []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
	}
	if o.PulseDropPerSpread == 0 {
		o.PulseDropPerSpread = 1e-4
	}
	if o.BitFlipPerSpread == 0 {
		o.BitFlipPerSpread = 1e-2
	}
	if o.ErosionPerSpread == 0 {
		o.ErosionPerSpread = 0.5
	}
}

// model builds the fault model for one spread point.
func (o MarginSweepOptions) model(spread float64) *faultinject.Model {
	return &faultinject.Model{
		Seed:          o.Seed,
		IcSpread:      spread,
		PulseDrop:     o.PulseDropPerSpread * spread,
		BitFlip:       o.BitFlipPerSpread * spread,
		MarginErosion: o.ErosionPerSpread * spread,
	}
}

// marginRow is one computed sweep row.
type marginRow struct {
	Spread        float64
	MarginLow     float64
	MarginHigh    float64
	Frequency     float64
	ThroughputRel float64
	Accuracy      float64
	DroppedPulses int64
	RetryCycles   int64
}

// MarginSweep regenerates the bias-margin robustness exhibit: SuperNPU on
// ResNet-50 (batch 1) swept over junction critical-current spread, with the
// secondary fault rates coupled to the spread. Per row it reports the
// JTL bias-margin window extracted from the perturbed RCSJ transients, the
// chip frequency at the eroded operating point, throughput relative to the
// nominal design, the datapath accuracy proxy and the pulse-drop recovery
// cost. Every draw is seed- and site-keyed, so the table is byte-identical
// across runs and worker counts. Options that make any row's fault model
// invalid (faultinject.Model.Validate) are an error, before any work.
func MarginSweep(ctx context.Context, o MarginSweepOptions) (string, error) {
	o.defaults()
	models := make([]*faultinject.Model, len(o.IcSpreads))
	for i, spread := range o.IcSpreads {
		models[i] = o.model(spread)
		if err := models[i].Validate(); err != nil {
			return "", err
		}
	}
	resnet, err := workload.ByName("ResNet50")
	if err != nil {
		return "", err
	}
	cfg := arch.SuperNPU()

	nominal, err := npusim.Simulate(ctx, cfg, resnet, 1)
	if err != nil {
		return "", err
	}
	// The RCSJ transients dominate a cold sweep: evaluate every grid
	// point's bias margins first — one fan-out, each variant bisecting on
	// its own solver — then assemble the rows (cycle simulation) in a
	// second fan-out.
	margins, err := jsim.BiasMarginsFaultedBatch(ctx, models)
	if err != nil {
		return "", err
	}
	rows := make([]marginRow, len(o.IcSpreads))
	err = parallel.ForEachContext(ctx, len(rows), func(ctx context.Context, i int) error {
		r, err := npusim.SimulateFaulted(ctx, cfg, resnet, 1, models[i])
		if err != nil {
			return err
		}
		row := marginRow{
			Spread:        o.IcSpreads[i],
			MarginLow:     margins[i].Low,
			MarginHigh:    margins[i].High,
			Frequency:     r.Frequency,
			ThroughputRel: r.Throughput / nominal.Throughput,
			Accuracy:      1,
		}
		if r.Faults != nil {
			row.Accuracy = r.Faults.Accuracy
			row.DroppedPulses = r.Faults.DroppedPulses
			row.RetryCycles = r.Faults.RetryCycles
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return "", err
	}

	t := report.NewTable(
		fmt.Sprintf("Margin sweep: SuperNPU on ResNet50, Ic spread vs margins/throughput/accuracy (seed %d)", o.Seed),
		"Ic spread", "bias low (xIc)", "bias high (xIc)", "margin width",
		"frequency (GHz)", "throughput rel.", "accuracy proxy", "dropped pulses", "retry cycles")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f%%", r.Spread*100),
			report.F(r.MarginLow, 3),
			report.F(r.MarginHigh, 3),
			report.F(r.MarginHigh-r.MarginLow, 3),
			report.F(r.Frequency/1e9, 2),
			report.F(r.ThroughputRel, 4),
			report.F(r.Accuracy, 4),
			fmt.Sprintf("%d", r.DroppedPulses),
			fmt.Sprintf("%d", r.RetryCycles),
		)
	}
	t.AddNote("secondary rates per unit spread: pulse drop %g/shift, bit flip %g/MAC, timing erosion %g",
		o.PulseDropPerSpread, o.BitFlipPerSpread, o.ErosionPerSpread)
	t.AddNote("deterministic under a fixed seed: identical output across runs and worker counts")
	return t.String(), nil
}
