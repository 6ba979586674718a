package jsim

import (
	"strconv"

	"supernpu/internal/faultinject"
)

// PerturbedJTL builds an n-stage JTL whose junction critical currents carry
// the fault model's per-site Ic spread: junction i is scaled by
// IcScale("jsim/jtl/<i>") while the bias network stays tuned to the nominal
// Ic — exactly the situation of a fabricated chip, where the bias rails are
// designed against the target process but each junction lands somewhere on
// the spread. The shunt resistance is re-derived for βc = 1 at the
// perturbed Ic. A disabled model reproduces StandardJTL exactly.
func PerturbedJTL(n int, fm *faultinject.Model) *Chain {
	ch := StandardJTL(n)
	if !fm.Enabled() {
		return ch
	}
	for i := range ch.Nodes {
		ic := ch.Nodes[i].JJ.Ic * fm.IcScale("jsim/jtl/"+strconv.Itoa(i))
		ch.Nodes[i].JJ = CriticallyDamped(ic, ch.Nodes[i].JJ.C)
	}
	return ch
}
