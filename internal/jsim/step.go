package jsim

import "supernpu/internal/sfq"

// transientDt is the RK4 step of every production transient: the Fig. 7
// JTL extraction, the storage-loop DFF demo and every bias-margin probe.
// The exhibits print the extraction to 0.01 ps and 0.001 aJ and each margin
// to 0.001·Ic, so the step only has to be fine enough that halving it moves
// none of those digits. TestTransientStepConverged certifies exactly that
// at this value: the extracted delay and energy move by under 1e-4
// relative, and every bisected margin boundary by under 1/100 of the
// margin bisection's quantum. RK4 is fourth order, so each halving shrinks
// the error about 16×; at 0.2 ps the margin bound fails.
//
// The jsim memo keys do not name the step: it is a constant.
const transientDt = 0.1 * sfq.Picosecond
