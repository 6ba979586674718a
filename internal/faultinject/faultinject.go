// Package faultinject is the repository's deterministic SFQ fault model.
//
// SuperNPU's feasibility rests on single-flux-quantum circuits operating
// inside tight bias-current and timing margins. The paper's JSIM-extracted
// gate parameters assume nominal junctions; real RSFQ/ERSFQ chips suffer
//
//   - critical-current (Ic) spread from fabrication variation, which shifts
//     every gate's operating point (delay, bias power, switching energy);
//   - thermal pulse drops, where a fluxon fails to propagate — in a
//     shift-register memory a dropped pulse must be recovered by
//     recirculating the whole chunk; and
//   - timing-margin erosion, which lowers the attainable clock frequency.
//
// A Model perturbs the three modeling layers (jsim circuit transients, the
// sfq cell library, the npusim/srmem cycle models) in a fully deterministic,
// seed-keyed way: every random draw is a pure function of (Seed, site),
// where the site is a stable string naming the perturbed entity (a junction
// index, a gate kind, a layer of a network). No draw consumes shared RNG
// state, so results are byte-identical across runs, goroutine schedules and
// worker counts — the property the golden exhibits and the evaluation
// service's response-identity tests rely on.
//
// A nil *Model (or one with every rate at zero) injects nothing; every
// consumer treats that as the exact nominal path.
package faultinject

import (
	"fmt"
	"math"
)

// Model is a seed-keyed fault-injection configuration. The zero value (and
// nil) disables every fault class.
type Model struct {
	// Seed keys every pseudo-random draw. Two models with equal rates but
	// different seeds perturb differently; the same seed reproduces the
	// same faults exactly.
	Seed int64

	// IcSpread is the fractional standard deviation of junction
	// critical-current spread (e.g. 0.03 = 3% sigma). It perturbs jsim
	// junction parameters and the sfq cell library's operating point.
	IcSpread float64

	// PulseDrop is the per-shift probability that a shift-register buffer
	// drops a pulse. Dropped pulses are recovered by recirculating the
	// chunk, costing preparation cycles in the performance simulator.
	PulseDrop float64

	// BitFlip is the per-MAC probability of a datapath bit flip. Flips are
	// not recovered; they corrupt outputs and degrade the accuracy proxy.
	BitFlip float64

	// MarginErosion is an additional fractional timing-margin loss applied
	// to every cell's delay/setup/hold on top of the Ic-spread shift
	// (e.g. 0.05 stretches every timing arc by 5%).
	MarginErosion float64

	// SimFail is the probability that a whole simulation aborts with a
	// *FaultError — the model of an unrecoverable margin violation. The
	// serving pipeline degrades such requests instead of failing them.
	SimFail float64
}

// Enabled reports whether the model injects anything. It is nil-safe.
func (m *Model) Enabled() bool {
	if m == nil {
		return false
	}
	return m.IcSpread != 0 || m.PulseDrop != 0 || m.BitFlip != 0 ||
		m.MarginErosion != 0 || m.SimFail != 0
}

// String renders the model for logs and exhibit headers.
func (m *Model) String() string {
	if !m.Enabled() {
		return "faults disabled"
	}
	return fmt.Sprintf("seed %d, Ic spread %.3g, pulse drop %.3g, bit flip %.3g, margin erosion %.3g, sim fail %.3g",
		m.Seed, m.IcSpread, m.PulseDrop, m.BitFlip, m.MarginErosion, m.SimFail)
}

// Validate reports the first unusable rate: every rate must be finite and
// >= 0, and the probabilities PulseDrop, BitFlip and SimFail must be <= 1.
// A nil model is valid. Callers validate where a model enters the program;
// an erosion of -1, for one, scales every gate delay to 0 and no
// simulation survives it.
func (m *Model) Validate() error {
	if m == nil {
		return nil
	}
	for _, r := range [...]struct {
		name        string
		v           float64
		probability bool
	}{
		{"IcSpread", m.IcSpread, false},
		{"PulseDrop", m.PulseDrop, true},
		{"BitFlip", m.BitFlip, true},
		{"MarginErosion", m.MarginErosion, false},
		{"SimFail", m.SimFail, true},
	} {
		switch {
		case !(r.v >= 0) || math.IsInf(r.v, 1):
			return fmt.Errorf("faultinject: %s = %g, want a finite rate >= 0", r.name, r.v)
		case r.probability && r.v > 1:
			return fmt.Errorf("faultinject: %s = %g, want a probability <= 1", r.name, r.v)
		}
	}
	return nil
}

// hash maps (seed, site) onto 64 uniformly scrambled bits: FNV-1a over the
// site bytes folded with the seed, finished with the splitmix64 mixer. The
// result is a pure function of its inputs — the foundation of the model's
// schedule independence.
func (m *Model) hash(site string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(m.Seed)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime64
	}
	// splitmix64 finalizer: full avalanche, so nearby sites decorrelate.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Uniform returns a deterministic draw in [0, 1) for the site.
func (m *Model) Uniform(site string) float64 {
	return float64(m.hash(site)>>11) / (1 << 53)
}

// Normal returns a deterministic standard-normal draw for the site
// (Box–Muller over two decorrelated uniform draws).
func (m *Model) Normal(site string) float64 {
	u1 := m.Uniform(site + "\x00a")
	u2 := m.Uniform(site + "\x00b")
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// icScaleClamp bounds the critical-current perturbation: beyond ±30% a
// junction is simply dead, which the pulse-drop and sim-fail classes model
// separately; letting the scale run further only destabilises transients.
const icScaleClamp = 0.3

// IcScale returns the site's critical-current multiplier: 1 + IcSpread·N(0,1),
// clamped to [1−icScaleClamp, 1+icScaleClamp]. It is 1 exactly when the
// model is disabled or IcSpread is zero.
func (m *Model) IcScale(site string) float64 {
	if m == nil || m.IcSpread == 0 {
		return 1
	}
	s := 1 + m.IcSpread*m.Normal(site)
	if s < 1-icScaleClamp {
		s = 1 - icScaleClamp
	}
	if s > 1+icScaleClamp {
		s = 1 + icScaleClamp
	}
	return s
}

// DelayScale returns the site's timing multiplier. An underbiased junction
// switches more slowly — RSFQ gate delay tracks Φ0/(Ic·R), so delay grows as
// the local critical current shrinks — and MarginErosion stretches every
// timing arc on top of that.
func (m *Model) DelayScale(site string) float64 {
	if !m.Enabled() {
		return 1
	}
	return (1 + m.MarginErosion) / m.IcScale(site)
}

// Count converts a per-event probability over n events into a deterministic
// event count: the expectation ⌊p·n⌋ plus one more when the site's uniform
// draw falls below the fractional remainder. This keeps counts reproducible
// (no binomial sampling state) while still rounding fairly across sites.
func (m *Model) Count(p float64, n int64, site string) int64 {
	if m == nil || p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	exp := p * float64(n)
	c := int64(exp)
	if m.Uniform(site) < exp-float64(c) {
		c++
	}
	if c > n {
		c = n
	}
	return c
}

// FailsSimulation reports whether the site's whole simulation aborts under
// the SimFail rate.
func (m *Model) FailsSimulation(site string) bool {
	if m == nil || m.SimFail <= 0 {
		return false
	}
	return m.Uniform("simfail\x00"+site) < m.SimFail
}

// FaultError marks a simulation aborted by an injected unrecoverable fault.
// The evaluation service maps it onto the degraded (analytical-fallback)
// path rather than a 5xx.
type FaultError struct {
	// Site names the simulation that aborted.
	Site string
}

// Error implements error. The text is deterministic (no addresses, no
// stacks) so degraded responses that embed it stay byte-stable.
func (e *FaultError) Error() string {
	return fmt.Sprintf("faultinject: simulation %q aborted by injected margin violation", e.Site)
}
