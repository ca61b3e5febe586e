// Package perf mirrors the benchmark-parsing leaf, which must stay
// stdlib-only: any repro import is a violation.
package perf

import (
	"fmt"

	"repro/internal/deep" // want "repro/internal/perf must not depend on repro/internal/deep"
)

// Describe uses both imports.
func Describe() string {
	return fmt.Sprint(deep.Marker)
}
