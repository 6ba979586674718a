// Fixture for the obsflow rule. The package clause says jsim, so the rule
// treats this as a modeling package: writes to obs instruments must pass,
// reads of instrument or gate state must be flagged.
package jsim

import "supernpu/internal/obs"

var (
	transients = obs.Default.Counter("fixture_transients_total", "transients in the fixture")
	solveTime  = obs.Default.Histogram("fixture_solve_seconds", "solve wall time in the fixture", obs.DurationEdges)
)

// writesAreFine exercises the full write surface the rule must not flag:
// registration, counter bumps, histogram observation, timers and spans.
func writesAreFine(steps int) {
	transients.Inc()
	transients.Add(int64(steps))
	solveTime.Observe(1.5)
	defer obs.Time(solveTime)()
	sp := obs.StartSpan("solve", obs.L("kind", "fixture"))
	defer sp.End()
}

// readsAreNot pulls instrument state back into the computation — every
// call here must be flagged.
func readsAreNot() float64 {
	n := transients.Value() // want "obs.Value"
	if obs.Tracing() {      // want "obs.Tracing"
		n--
	}
	_ = solveTime.Count()        // want "obs.Count"
	_ = solveTime.Sum()          // want "obs.Sum"
	_ = solveTime.BucketCounts() // want "obs.BucketCounts"
	_ = solveTime.Edges()        // want "obs.Edges"
	return float64(n)
}
