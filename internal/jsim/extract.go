package jsim

import (
	"context"
	"errors"
	"fmt"

	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/sfq"
	"supernpu/internal/simcache"
)

// cache memoises the RCSJ extractions (gate parameters, setup time, bias
// margins): each is a deterministic transient over a fixed netlist, yet
// Fig. 7 re-runs the JTL extraction on every exhibit regeneration.
var cache = simcache.New[any]()

func init() { simcache.Register("jsim", cache) }

// appendExtractionKey appends the cache key of one extraction: its name
// and the fault model its netlist runs under (nil for the nominal one).
func appendExtractionKey(b []byte, name string, fm *faultinject.Model) []byte {
	return simcache.AppendFaultKey(simcache.AppendString(b, name), fm)
}

// GateParams are the gate-level quantities the paper extracts from JSIM runs
// to feed the estimator (Fig. 10: delay, static power, dynamic energy).
type GateParams struct {
	// StageDelay is the pulse propagation delay per JTL stage.
	StageDelay float64 // seconds
	// SwitchEnergyPerJJ is the bias energy drawn per junction per fluxon.
	SwitchEnergyPerJJ float64 // joules
	// StaticPowerPerJJ is the DC dissipation per junction (RSFQ biasing).
	StaticPowerPerJJ float64 // watts
}

// ExtractJTLParams runs a transient simulation of a standard JTL and
// measures the per-stage propagation delay and per-junction switching
// energy, the same extraction the paper performs with JSIM against the AIST
// 1.0 µm cell library. The extraction is memoised; only the first call pays
// for the transient.
func ExtractJTLParams(ctx context.Context) (GateParams, error) {
	var kb [128]byte
	v, err := cache.GetOrCompute(appendExtractionKey(kb[:0], "jtl-params/12", nil), func() (any, error) {
		return extractJTLParams(ctx)
	})
	if err != nil {
		return GateParams{}, err
	}
	return v.(GateParams), nil
}

func extractJTLParams(ctx context.Context) (GateParams, error) {
	const stages = 12
	chain := StandardJTL(stages)
	// Streaming extraction: pulse times, bias energy and final phases are
	// accumulated in-stream, so the transient never materialises its dense
	// O(steps·nodes) history.
	var (
		pulse  PulseDetector
		energy EnergyAccumulator
		fin    FinalState
	)
	s := NewSolver()
	if err := s.RunChain(ctx, chain, 120*sfq.Picosecond, 0.02*sfq.Picosecond, &pulse, &energy, &fin); err != nil {
		return GateParams{}, err
	}

	// Delay: measure between interior nodes to avoid launch and
	// termination edge effects.
	first, last := 2, stages-3
	t0 := pulse.Times(first)
	t1 := pulse.Times(last)
	if len(t0) == 0 || len(t1) == 0 {
		return GateParams{}, errors.New("jsim: pulse did not propagate through the JTL")
	}
	delay := (t1[0] - t0[0]) / float64(last-first)
	if delay <= 0 {
		return GateParams{}, fmt.Errorf("jsim: non-positive stage delay %g", delay)
	}

	// Switching energy: total bias energy divided by the junctions that
	// slipped. (∫ I_bias·V dt = I_bias·Φ0 per 2π slip.)
	slipped := 0
	for i := 0; i < stages; i++ {
		slipped += fin.Slips(i)
	}
	if slipped == 0 {
		return GateParams{}, errors.New("jsim: no junction switched")
	}
	perJJ := energy.Total() / float64(slipped)

	// Static power: the RSFQ bias resistor network dissipates V_bias·I_bias
	// per junction continuously, independent of activity.
	p := sfq.AIST10()
	return GateParams{
		StageDelay:        delay,
		SwitchEnergyPerJJ: perJJ,
		StaticPowerPerJJ:  p.StaticPowerPerJJ(sfq.RSFQ),
	}, nil
}

// StorageChain builds the storage-loop experiment that demonstrates the DFF
// working principle of Fig. 1(c): a JTL feeding a high-inductance quantizing
// loop whose underbiased output junction holds the incoming fluxon until a
// clock pulse releases it.
//
// If clockAt > 0 a trigger pulse is injected at the storage junction at that
// time; with clockAt <= 0 the fluxon must stay parked in the loop.
func StorageChain(clockAt float64) *Chain {
	const (
		ic = 100e-6
		c  = 0.24e-12
	)
	ltl := 3 * phi0over2pi / ic   // normal JTL coupling, βL = 3
	lbig := 12 * phi0over2pi / ic // quantizing storage loop, βL = 12

	const n = 8
	store := 4 // index of the storage junction
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{JJ: CriticallyDamped(ic, c), Bias: 0.7 * ic, LNext: ltl}
	}
	// The storage loop: large inductor into the storage junction, which is
	// underbiased so the arriving fluxon cannot switch it on its own.
	nodes[store-1].LNext = lbig
	nodes[store].Bias = 0.40 * ic

	ch := &Chain{
		Nodes: nodes,
		Sources: []PulseSource{
			{Node: 0, At: 20e-12, Sigma: 1.2e-12, Amp: 1.6 * ic},
		},
	}
	if clockAt > 0 {
		ch.Sources = append(ch.Sources, PulseSource{
			Node: store, At: clockAt, Sigma: 1.2e-12, Amp: 1.8 * ic,
		})
	}
	return ch
}

// DFFDemo runs the two storage-loop transients (without and with a clock
// pulse) and reports whether the chain stores the fluxon until clocked —
// the defining behaviour of the SFQ delay flip-flop. It returns an error if
// either transient fails or if the observed behaviour is not store/release.
func DFFDemo(ctx context.Context) error {
	const (
		T       = 160 * sfq.Picosecond
		dt      = 0.02 * sfq.Picosecond
		clockAt = 80 * sfq.Picosecond
		store   = 4
		out     = 6
	)

	// The two transients are independent netlists; the batched runner fans
	// them out across the pool, streaming each into its own observers.
	var (
		held     FinalState
		released FinalState
		relPulse PulseDetector
	)
	err := RunBatch(ctx, []BatchJob{
		{Chain: StorageChain(0), T: T, Dt: dt, Observers: []Observer{&held}},
		{Chain: StorageChain(clockAt), T: T, Dt: dt, Observers: []Observer{&released, &relPulse}},
	})
	if err != nil {
		return err
	}
	if held.Slips(store-1) < 1 {
		return errors.New("jsim: input fluxon never reached the storage loop")
	}
	if held.Slips(out) != 0 {
		return errors.New("jsim: fluxon leaked past the storage junction without a clock")
	}

	if released.Slips(out) < 1 {
		return errors.New("jsim: clock pulse failed to release the stored fluxon")
	}
	outTimes := relPulse.Times(out)
	if len(outTimes) == 0 || outTimes[0] < clockAt {
		return errors.New("jsim: output pulse appeared before the clock")
	}
	return nil
}

// ExtractSetupTime measures the storage cell's setup time — the minimum
// interval by which the data pulse must precede the clock pulse for the
// stored fluxon to be released correctly — by bisecting the data→clock
// separation on the storage-loop circuit. This is the timing-parameter
// extraction the gate-level estimation layer performs against JSIM
// (Section IV-A1). The extraction is memoised.
func ExtractSetupTime(ctx context.Context) (float64, error) {
	var kb [128]byte
	v, err := cache.GetOrCompute(appendExtractionKey(kb[:0], "setup-time", nil), func() (any, error) {
		return extractSetupTime(ctx)
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

func extractSetupTime(ctx context.Context) (float64, error) {
	const (
		T      = 200 * sfq.Picosecond
		dt     = 0.05 * sfq.Picosecond
		dataAt = 20 * sfq.Picosecond
		out    = 6
	)
	// Reference: the data pulse passing the last shared JTL stage before
	// the storage inductor. The setup time is how long after that instant
	// the loop needs to charge before a clock pulse reads it out. One
	// solver is reused across the probe and every bisection transient.
	s := NewSolver()
	var pulse PulseDetector
	if err := s.RunChain(ctx, StorageChain(0), 80*sfq.Picosecond, dt, &pulse); err != nil {
		return 0, err
	}
	ref := pulse.Times(2)
	if len(ref) == 0 {
		return 0, errors.New("jsim: data pulse never reached the storage loop")
	}
	arrive := ref[0]

	var fin FinalState
	relObs := []Observer{&fin}
	// probeErr latches non-numeric failures (cancellation, deadline): they
	// describe the attempt, not the cell, so they must abort the bisection
	// instead of masquerading as "did not release".
	var probeErr error
	releases := func(sep float64) bool {
		if probeErr != nil {
			return false
		}
		if err := s.RunChain(ctx, StorageChain(arrive+sep), T, dt, relObs...); err != nil {
			if !guard.IsNumeric(err) {
				probeErr = err
			}
			return false
		}
		return fin.Slips(out) >= 1
	}
	// Establish a working upper bound.
	hi := 40 * sfq.Picosecond
	if !releases(hi) {
		if probeErr != nil {
			return 0, probeErr
		}
		return 0, errors.New("jsim: storage cell fails even with a generous setup interval")
	}
	lo := -10 * sfq.Picosecond
	if releases(lo) {
		return 0, errors.New("jsim: storage cell released before the data pulse settled")
	}
	for i := 0; i < 14; i++ {
		mid := (lo + hi) / 2
		if releases(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if probeErr != nil {
		return 0, probeErr
	}
	return hi, nil
}
