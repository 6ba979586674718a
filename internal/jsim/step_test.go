package jsim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/sfq"
)

// TestTransientStepConverged is transientDt's certificate: halving the
// production step must move nothing the exhibits print.
//
// The extraction's stage delay and switch energy must agree to 1e-4
// relative; Fig. 7 prints them to 0.01 ps and 0.001 aJ, half a unit of
// which is at least 1.4e-3 relative.
//
// Each margin boundary is bisected 24 times at both steps, resolving it to
// 1/4096 of the exhibit's 12-step quantum (bracket/4096), and the two
// boundaries must differ by at most 1/100 of that quantum. A boundary that shifts by s
// quanta flips a 12-step bisection result with probability about s, so
// this bounds the flip rate at 1 % per arm. The variants are the nominal
// JTL and seed 0 at the margin sweep's five nonzero spreads. Bit-identity
// of the 12-step results cannot be certified by any finite seed set: a
// variant whose boundary lies within the shift of a grid point flips.
func TestTransientStepConverged(t *testing.T) {
	ctx := context.Background()
	steps := [2]float64{transientDt, transientDt / 2}

	var params [2]GateParams
	for k, dt := range steps {
		p, err := extractJTLParams(ctx, dt)
		if err != nil {
			t.Fatalf("extraction at %g ps: %v", dt/sfq.Picosecond, err)
		}
		params[k] = p
	}
	var rel [2]float64
	for k, q := range []struct {
		name           string
		coarse, halved float64
	}{
		{"stage delay", params[0].StageDelay, params[1].StageDelay},
		{"switch energy", params[0].SwitchEnergyPerJJ, params[1].SwitchEnergyPerJJ},
	} {
		rel[k] = math.Abs(q.coarse-q.halved) / math.Abs(q.halved)
		if rel[k] > 1e-4 {
			t.Errorf("%s moves %.2g relative when the step halves (%.9g -> %.9g), want <= 1e-4",
				q.name, rel[k], q.coarse, q.halved)
		}
	}

	const certBisections = 24
	models := []*faultinject.Model{nil}
	for _, spread := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
		models = append(models, &faultinject.Model{Seed: 0, IcSpread: spread})
	}
	// Each arm starts its bracket where the production analysis does: the
	// underbias arm at 0, the overbias arm at the nominal or faulted top.
	failing := func(fm *faultinject.Model, arm int) float64 {
		if arm == 0 {
			return 0
		}
		return overbias(fm)
	}
	// One job per (model, step, arm), each on its own probe.
	bounds := make([]float64, len(models)*4)
	err := parallel.ForEachContext(ctx, len(bounds), func(ctx context.Context, j int) error {
		fm, dt, arm := models[j/4], steps[j/2%2], j%2
		p := newMarginProbe(ctx, fm, dt)
		if !p.works(marginNominal) {
			return fmt.Errorf("%v fails at the nominal bias at %g ps", fm, dt/sfq.Picosecond)
		}
		bounds[j] = p.bisect(failing(fm, arm), marginNominal, certBisections)
		return p.err
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for m, fm := range models {
		for arm, name := range []string{"low", "high"} {
			quantum := math.Abs(marginNominal-failing(fm, arm)) / (1 << marginBisections)
			coarse, halved := bounds[m*4+arm], bounds[m*4+2+arm]
			shift := math.Abs(coarse-halved) / quantum
			if shift > 0.01 {
				t.Errorf("%v: %s boundary moves %.3g quanta when the step halves (%.7f -> %.7f), want <= 0.01",
					fm, name, shift, coarse, halved)
			}
			worst = math.Max(worst, shift)
		}
	}
	t.Logf("halving the step moves the delay %.2g and the energy %.2g relative, and a margin boundary at most %.2g quanta",
		rel[0], rel[1], worst)
}
