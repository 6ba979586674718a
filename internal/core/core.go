// Package core ties the SuperNPU system together: it exposes the paper's
// five evaluation design points (the TPU core plus the four SFQ designs),
// a unified evaluation interface over both simulators, and the design-space
// exploration entry points (buffer division, resource balancing, register
// scaling) that produced SuperNPU.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"supernpu/internal/arch"
	"supernpu/internal/clocking"
	"supernpu/internal/faultinject"
	"supernpu/internal/netunit"
	"supernpu/internal/npusim"
	"supernpu/internal/scalesim"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// ErrUnknownDesign marks a design name outside the evaluated set (or an
// ERSFQ- prefix applied to a non-SFQ design).
var ErrUnknownDesign = errors.New("core: unknown design")

// IsBadInput reports whether err stems from invalid caller input anywhere in
// the modeling stack — an unknown design, workload kind, clocking scheme,
// network-unit design or cell-library gate. The evaluation service maps such
// errors to 400s; anything else on the simulation path degrades or fails.
// It sees through the parallel pool's PanicError wrapping, so a boundary
// panic recovered deep inside a worker still classifies correctly.
func IsBadInput(err error) bool {
	return errors.Is(err, ErrUnknownDesign) ||
		errors.Is(err, workload.ErrUnknownKind) ||
		errors.Is(err, clocking.ErrUnknownScheme) ||
		errors.Is(err, netunit.ErrUnknownDesign) ||
		errors.Is(err, sfq.ErrUnknownGate)
}

// Platform distinguishes the two simulated machine families.
type Platform int

const (
	// SFQ designs run on the npusim cycle model with the estimator's
	// frequency/power/area.
	SFQ Platform = iota
	// CMOS designs run on the scalesim TPU-core model.
	CMOS
)

// Design is one evaluated design point.
type Design struct {
	Platform Platform
	SFQ      arch.Config
	CMOS     scalesim.Config
}

// Name returns the design's display name.
func (d Design) Name() string {
	if d.Platform == CMOS {
		return d.CMOS.Name
	}
	return d.SFQ.Name
}

// SFQDesign wraps an SFQ configuration.
func SFQDesign(cfg arch.Config) Design { return Design{Platform: SFQ, SFQ: cfg} }

// CMOSDesign wraps a CMOS configuration.
func CMOSDesign(cfg scalesim.Config) Design { return Design{Platform: CMOS, CMOS: cfg} }

// DesignPoints returns the paper's five evaluated designs in Fig. 23
// order: TPU, Baseline, Buffer opt., Resource opt., SuperNPU.
func DesignPoints() []Design {
	out := []Design{CMOSDesign(scalesim.TPU())}
	for _, c := range arch.Designs() {
		out = append(out, SFQDesign(c))
	}
	return out
}

// DesignByName resolves a design point by display name, case-insensitively.
// An "ERSFQ-" prefix on an SFQ design name selects the energy-efficient
// biasing variant of that design (zero static power, doubled switching
// energy), matching the Table III rows.
func DesignByName(name string) (Design, error) {
	want := strings.TrimSpace(name)
	base, ersfq := want, false
	if len(want) >= 6 && strings.EqualFold(want[:6], "ERSFQ-") {
		base, ersfq = want[6:], true
	}
	for _, d := range DesignPoints() {
		if !strings.EqualFold(d.Name(), base) {
			continue
		}
		if !ersfq {
			return d, nil
		}
		if d.Platform != SFQ {
			return Design{}, fmt.Errorf("%w: ERSFQ applies only to SFQ designs, not %q", ErrUnknownDesign, d.Name())
		}
		cfg := d.SFQ
		cfg.Tech = sfq.ERSFQ
		cfg.Name = "ERSFQ-" + cfg.Name
		return SFQDesign(cfg), nil
	}
	names := make([]string, 0, 5)
	for _, d := range DesignPoints() {
		names = append(names, d.Name())
	}
	return Design{}, fmt.Errorf("%w %q (have %s, optionally ERSFQ- prefixed)",
		ErrUnknownDesign, name, strings.Join(names, ", "))
}

// Evaluation is the unified result of running one workload on one design.
type Evaluation struct {
	Design  string
	Network string
	Batch   int

	Frequency     float64 // Hz
	PeakMACs      float64 // MAC/s
	Throughput    float64 // effective MAC/s
	Time          float64 // batch latency (s)
	PEUtilization float64
	TotalCycles   int64
	MACs          int64

	// PrepFraction is preparation/total cycles (SFQ designs only).
	PrepFraction float64
	// ChipPower is static+dynamic for SFQ, the average power for CMOS.
	ChipPower float64

	// SFQReport and CMOSReport expose the platform-specific detail;
	// exactly one is non-nil.
	SFQReport  *npusim.Report
	CMOSReport *scalesim.Report
}

// Evaluate runs the workload at the given batch (0 = the design's max
// batch) and returns the unified result. Cancellation of ctx aborts the
// underlying simulation with an error matching guard.ErrCanceled.
func Evaluate(ctx context.Context, d Design, net workload.Network, batch int) (*Evaluation, error) {
	return EvaluateFaulted(ctx, d, net, batch, nil)
}

// EvaluateFaulted is Evaluate under a fault model. Faults are an SFQ
// phenomenon — junction spread, thermal pulse drops, bias-margin erosion —
// so CMOS designs evaluate nominally regardless of the model. A disabled
// (or nil) model is the exact nominal path.
func EvaluateFaulted(ctx context.Context, d Design, net workload.Network, batch int, fm *faultinject.Model) (*Evaluation, error) {
	switch d.Platform {
	case SFQ:
		r, err := npusim.SimulateFaulted(ctx, d.SFQ, net, batch, fm)
		if err != nil {
			return nil, err
		}
		return &Evaluation{
			Design: d.Name(), Network: net.Name, Batch: r.Batch,
			Frequency: r.Frequency, PeakMACs: r.PeakMACs,
			Throughput: r.Throughput, Time: r.Time,
			PEUtilization: r.PEUtilization,
			TotalCycles:   r.TotalCycles, MACs: r.MACs,
			PrepFraction: r.PrepFraction(),
			ChipPower:    r.TotalPower(),
			SFQReport:    r,
		}, nil
	case CMOS:
		r, err := scalesim.Simulate(ctx, d.CMOS, net, batch)
		if err != nil {
			return nil, err
		}
		return &Evaluation{
			Design: d.Name(), Network: net.Name, Batch: r.Batch,
			Frequency: d.CMOS.Frequency, PeakMACs: d.CMOS.PeakMACs(),
			Throughput: r.Throughput, Time: r.Time,
			PEUtilization: r.PEUtilization,
			TotalCycles:   r.TotalCycles, MACs: r.MACs,
			ChipPower:  d.CMOS.Power,
			CMOSReport: r,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown platform %d", d.Platform)
	}
}

// MaxBatch returns the design's Table II batch for the network.
func (d Design) MaxBatch(net workload.Network) int {
	if d.Platform == CMOS {
		return d.CMOS.MaxBatch(net)
	}
	return npusim.MaxBatch(d.SFQ, net)
}

// Speedup evaluates a design against the TPU reference on one workload and
// returns effective-throughput ratio (Fig. 23's y-axis).
func Speedup(ctx context.Context, d Design, net workload.Network) (float64, error) {
	ref, err := Evaluate(ctx, CMOSDesign(scalesim.TPU()), net, 0)
	if err != nil {
		return 0, err
	}
	ev, err := Evaluate(ctx, d, net, 0)
	if err != nil {
		return 0, err
	}
	return ev.Throughput / ref.Throughput, nil
}
