// Package fx8 mirrors the simulator core: it reaches the forbidden
// store package only transitively, through mid, which the analyzer
// must still catch and explain with the shortest chain.
package fx8

import "repro/internal/mid" // want "repro/internal/fx8 must not depend on repro/internal/store"

// Uses keeps the import live.
const Uses = mid.Via
