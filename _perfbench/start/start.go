// Package start records when the benchmark process began initialising its
// packages. Packages are initialised in import-path order once their own
// imports are, so this one, which imports only time and sorts before every
// supernpu/internal package, runs before any package of the program.
package start

import "time"

// T0 is the time this package was initialised.
var T0 = time.Now()
