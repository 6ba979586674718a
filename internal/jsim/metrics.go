// Solver instruments. They live in their own file because the solver code
// conventionally names its observer slices "obs", which would shadow the
// metrics package inside those functions; here the instruments are bound
// to package-level variables once, and the increment sites never need the
// import. All four are always-live counters (one atomic add, zero
// allocations), so the solver's zero-allocation steady state holds with
// instrumentation enabled — TestSolverSteadyStateAllocs proves it.
//
// The instruments are write-only from this package: nothing the solver
// computes reads them back (enforced by the supernpu-lint obsflow rule).

package jsim

import "supernpu/internal/obs"

var (
	// mTransients counts a run a Finisher ended early as one completed
	// transient; mSteps counts only the RK4 steps a run integrated: none
	// past its last sample or the sample its Finisher stopped it at.
	mTransients = obs.Default.Counter("supernpu_jsim_transients_total", "transient solves completed by the streaming solver, runs ended early at a final verdict included")
	mSteps      = obs.Default.Counter("supernpu_jsim_steps_total", "RK4 steps integrated across all transients")
	mPulses     = obs.Default.Counter("supernpu_jsim_pulses_total", "2*pi phase crossings recorded by PulseDetector observers")
	mDiverged   = obs.Default.Counter("supernpu_jsim_diverged_total", "transient solves aborted on a non-finite phase")
)
