package jsim

import (
	"context"
	"flag"
	"math"
	"testing"

	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
)

var marginCert = flag.Bool("margin-cert", false,
	"certify the margin verdict over 1,501 variants instead of 31 (make margin-cert)")

// certModels returns the nominal line and each seed at the margin sweep's
// five nonzero spreads.
func certModels(seeds []int64) []*faultinject.Model {
	models := []*faultinject.Model{nil}
	for _, seed := range seeds {
		for _, spread := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
			models = append(models, &faultinject.Model{Seed: seed, IcSpread: spread})
		}
	}
	return models
}

// certSeeds are the step certificate's seeds (31 variants), or with all
// set the 1,501-variant scan's: seeds 0–149 and 7919 + 6983·k for k < 150.
func certSeeds(all bool) []int64 {
	if !all {
		return []int64{0, 1, 2, 3, 42, 62}
	}
	var seeds []int64
	for k := int64(0); k < 150; k++ {
		seeds = append(seeds, k)
	}
	for k := int64(0); k < 150; k++ {
		seeds = append(seeds, 7919+6983*k)
	}
	return seeds
}

// lastSample records the last sample a run showed its observers.
type lastSample struct {
	step int
	phi  []float64
}

func (l *lastSample) Init(info RunInfo) { l.phi = growF(l.phi, info.Nodes) }
func (l *lastSample) Observe(step int, t float64, phi, v []float64) {
	l.step = step
	copy(l.phi, phi)
}

// doubleOrBackward reports whether some junction at phases phi has slipped
// twice or backwards: stage 1's rule.
func doubleOrBackward(phi []float64) bool {
	for _, p := range phi {
		if k := slips(p); k >= 2 || k < 0 {
			return true
		}
	}
	return false
}

// certTally counts one variant's probes: how each ended, how many disagree
// with the full-window run, and the RK4 steps integrated against the
// steps of the full windows.
type certTally struct {
	probes, stage1, stage2, mismatches int
	steps, fullSteps                   int64
}

func (c *certTally) add(o certTally) {
	c.probes += o.probes
	c.stage1 += o.stage1
	c.stage2 += o.stage2
	c.mismatches += o.mismatches
	c.steps += o.steps
	c.fullSteps += o.fullSteps
}

// certifyVariant walks fm's margin analysis along the bisection path of
// biasMargins and runs every probe twice: through the probe, which may
// stop early, and over the full window with a FinalState. The verdicts
// must agree, and a run that stage 2 stopped must already show the final
// slip counts.
func certifyVariant(t *testing.T, ctx context.Context, fm *faultinject.Model) (certTally, error) {
	p := newMarginProbe(ctx, fm, transientDt)
	var (
		seen  lastSample
		ref   Solver
		fin   FinalState
		tally certTally
	)
	p.obs = append(p.obs, &seen)
	refObs := []Observer{&fin}
	last := stepCount(marginProbeT, p.dt) - 1
	works := func(bias float64) bool {
		got := p.works(bias)
		if err := ref.RunChain(ctx, p.ch, marginProbeT, p.dt, refObs...); err != nil {
			// A numeric failure fails the probe on both paths.
			if got {
				tally.mismatches++
				t.Errorf("%v at %.7f·Ic: the probe works, the full window fails with %v", fm, bias, err)
			}
			return false
		}
		want := true
		for j := range p.ch.Nodes {
			want = want && fin.Slips(j) == 1
		}
		tally.probes++
		tally.steps += int64(seen.step)
		tally.fullSteps += int64(last)
		switch {
		case got != want:
			tally.mismatches++
			t.Errorf("%v at %.7f·Ic: early verdict %v at sample %d, full window %v", fm, bias, got, seen.step, want)
		case seen.step == last:
		case doubleOrBackward(seen.phi):
			tally.stage1++
		default:
			tally.stage2++
			for j := range p.ch.Nodes {
				if slips(seen.phi[j]) != fin.Slips(j) {
					tally.mismatches++
					t.Errorf("%v at %.7f·Ic: stage 2 stopped at sample %d with junction %d at %d slips, full window %d",
						fm, bias, seen.step, j, slips(seen.phi[j]), fin.Slips(j))
				}
			}
		}
		return want
	}
	if !works(marginNominal) {
		return tally, p.err
	}
	top := overbias(fm)
	works(top)
	for _, bad := range []float64{0, top} {
		good := marginNominal
		for i := 0; i < marginBisections; i++ {
			if mid := (bad + good) / 2; works(mid) {
				good = mid
			} else {
				bad = mid
			}
		}
	}
	return tally, p.err
}

// TestMarginVerdictMatchesFullWindow is the certificate of the margin
// probe's early stop: along every bisection path, each probe's verdict
// equals the full-window run's, so every 12-step margin is bit-identical
// to one computed from full windows. It runs the step certificate's 31
// variants; -margin-cert runs the 1,501 of the step scan.
func TestMarginVerdictMatchesFullWindow(t *testing.T) {
	models := certModels(certSeeds(*marginCert))
	tallies := make([]certTally, len(models))
	err := parallel.ForEachContext(context.Background(), len(models), func(ctx context.Context, i int) error {
		var err error
		tallies[i], err = certifyVariant(t, ctx, models[i])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum certTally
	for _, c := range tallies {
		sum.add(c)
	}
	t.Logf("%d variants, %d probes: %d mismatches; stage 1 stopped %d, stage 2 %d; %d of %d full-window steps integrated (%.1f %% saved)",
		len(models), sum.probes, sum.mismatches, sum.stage1, sum.stage2, sum.steps, sum.fullSteps,
		100*(1-float64(sum.steps)/float64(sum.fullSteps)))
	if sum.stage1 == 0 || sum.stage2 == 0 {
		t.Errorf("stage 1 stopped %d probes and stage 2 %d: the certificate must exercise both", sum.stage1, sum.stage2)
	}
}

// energy is the chain's energy E in units of Φ0/2π (current·rad), with
// every source off, and ΣU_j, the floor of the wells its junctions sit in.
func energy(ch *Chain, phi, v []float64) (e, floor float64) {
	for j, p := range phi {
		nd := &ch.Nodes[j]
		ic, ib := nd.JJ.Ic, nd.Bias
		e += 0.5*nd.JJ.C*phi0over2pi*v[j]*v[j] + ic*(1-math.Cos(p)) - ib*p
		if j+1 < len(phi) {
			e += phi0over2pi * (phi[j+1] - p) * (phi[j+1] - p) / (2 * nd.LNext)
		}
		a := math.Asin(ib / ic)
		k := math.Floor((p + math.Pi + a) / (2 * math.Pi))
		floor += ic*(1-math.Cos(a)) - ib*(a+2*math.Pi*k)
	}
	return e, floor
}

// energyProbe tracks E along a run from the last source cutoff on: the
// largest one-step rise, and the largest gap between the verdict's
// excess and E − ΣU.
type energyProbe struct {
	ch            *Chain
	verdict       *marginVerdict
	start         float64
	prev          float64
	seen          bool
	rise, excessD float64
}

func (e *energyProbe) Init(info RunInfo) { e.seen, e.rise, e.excessD = false, 0, 0 }
func (e *energyProbe) Observe(step int, t float64, phi, v []float64) {
	if t < e.start {
		return
	}
	en, floor := energy(e.ch, phi, v)
	if e.seen {
		e.rise = math.Max(e.rise, en-e.prev)
	}
	e.prev, e.seen = en, true
	e.excessD = math.Max(e.excessD, math.Abs(e.verdict.excess(phi, v)-(en-floor)))
}

// Stage 2's proof rests on E never rising once the sources are off; RK4
// only approximates the flow, so its one-step rise must stay far inside
// the factor ½ the rule keeps in hand. Along full-window trajectories of
// 25 variants on a 0.40–0.98·Ic bias grid, every step after the last
// cutoff raises E by at most 1e-6 of the smallest barrier, and the
// verdict's E − ΣU, summed junction by junction, equals the formula's.
func TestMarginEnergyNeverRises(t *testing.T) {
	models := certModels([]int64{0, 1, 2, 3, 4})[1:]
	biases := []float64{0.40, 0.46, 0.52, 0.58, 0.64, 0.70, 0.76, 0.82, 0.88, 0.94, 0.98}
	worst := make([]float64, len(models))
	runs := make([]int, len(models))
	err := parallel.ForEachContext(context.Background(), len(models), func(ctx context.Context, i int) error {
		ch := PerturbedJTL(marginStages, models[i])
		var (
			s Solver
			m = marginVerdict{ch: ch}
			e = energyProbe{ch: ch, verdict: &m}
		)
		for _, bias := range biases {
			for j := range ch.Nodes {
				ch.Nodes[j].Bias = bias * marginIc
			}
			m.Init(RunInfo{Steps: stepCount(marginProbeT, transientDt), Nodes: len(ch.Nodes)})
			if math.IsInf(m.start, 1) {
				continue // some Ib ≥ Ic: stage 2 never applies
			}
			e.start = m.start
			if err := s.RunChain(ctx, ch, marginProbeT, transientDt, &e); err != nil {
				return err
			}
			runs[i]++
			minDU := 2 * m.half
			if r := e.rise / minDU; r > worst[i] {
				worst[i] = r
			}
			if d := e.excessD / minDU; d > 1e-9 {
				t.Errorf("%v at %.2f·Ic: the verdict's E − ΣU departs from the formula by %.3g of min ΔU", models[i], bias, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	top, n := 0.0, 0
	for i, w := range worst {
		top = math.Max(top, w)
		n += runs[i]
	}
	if top > 1e-6 {
		t.Errorf("E rises by %.3g of the smallest barrier in one step, want <= 1e-6", top)
	}
	if n == 0 {
		t.Fatal("no run had every Ib < Ic")
	}
	t.Logf("%d runs: the largest one-step rise of E after the cutoff is %.3g of min ΔU", n, top)
}

// ΔU has a closed form: on the nominal line at the design point,
// Ib = 0.7·Ic, every junction's barrier is 0.31473·Ic; unbiased, 2·Ic.
func TestBarrierAtDesignPoint(t *testing.T) {
	for _, c := range []struct{ bias, want, tol float64 }{{0.7, 0.31473, 1e-5}, {0, 2, 0}} {
		p := newMarginProbe(context.Background(), nil, transientDt)
		for j := range p.ch.Nodes {
			p.ch.Nodes[j].Bias = c.bias * marginIc
		}
		p.verdict.Init(RunInfo{Nodes: len(p.ch.Nodes), Steps: 1})
		if got := 2 * p.verdict.half / marginIc; math.Abs(got-c.want) > c.tol {
			t.Errorf("min ΔU at %.1f·Ic = %.6f·Ic, want %g·Ic", c.bias, got, c.want)
		}
	}
}

// With some junction biased at or above its critical current, its wells
// do not exist and stage 2's bound proves nothing: such a probe may stop
// early only by stage 1. The nominal line at exactly 1.0·Ic puts every
// junction at Ib = Ic. Seed 42 at 10 % spread has a junction at 0.836·Ic
// and still single-pulses up to its high margin boundary (0.965·Ic);
// without the rule, stage 2 stops those probes at sample 544.
func TestOverbiasedJunctionBlocksStage2(t *testing.T) {
	cases := []struct {
		fm     *faultinject.Model
		biases []float64
	}{
		{nil, []float64{1.0}},
		{&faultinject.Model{Seed: 42, IcSpread: 0.10}, []float64{0.90, 0.93, 0.95, 0.96, 0.965}},
	}
	worked := 0
	for _, c := range cases {
		p := newMarginProbe(context.Background(), c.fm, transientDt)
		var seen lastSample
		p.obs = append(p.obs, &seen)
		last := stepCount(marginProbeT, p.dt) - 1
		for _, bias := range c.biases {
			over := false
			for _, nd := range p.ch.Nodes {
				over = over || bias*marginIc >= nd.JJ.Ic
			}
			if !over {
				t.Fatalf("%v at %.3f·Ic: every junction is below its Ic", c.fm, bias)
			}
			works := p.works(bias)
			if p.err != nil {
				t.Fatal(p.err)
			}
			if seen.step < last && !doubleOrBackward(seen.phi) {
				t.Errorf("%v at %.3f·Ic: stopped at sample %d without a double or backward slip", c.fm, bias, seen.step)
			}
			if works {
				worked++
			}
		}
	}
	if worked == 0 {
		t.Error("no case single-pulsed: the test shows nothing")
	}
}
