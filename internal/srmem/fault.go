package srmem

import "supernpu/internal/faultinject"

// DropRetryCycles converts a shift count into the recovery cost of the
// fault model's thermal pulse drops: each dropped pulse forces the chunk
// holding the lost fluxon to recirculate once so the entry can be re-shifted
// (shift registers have no ECC — the only repair is replay). The count is a
// deterministic function of (model, shifts, site), so the charge is
// identical across runs and worker counts.
func (c Config) DropRetryCycles(fm *faultinject.Model, shifts int64, site string) (dropped, retryCycles int64) {
	if !fm.Enabled() {
		return 0, 0
	}
	dropped = fm.Count(fm.PulseDrop, shifts, site)
	return dropped, dropped * int64(c.RecirculateCycles())
}
