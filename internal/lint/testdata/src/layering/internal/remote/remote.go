// Package remote mirrors the HTTP transport, which may import only
// obs: the allowed obs import is silent, the store import is a
// violation.
package remote

import (
	"repro/internal/obs"
	"repro/internal/store" // want "repro/internal/remote must not depend on repro/internal/store"
)

// Uses keeps both imports live.
const Uses = store.Kind + obs.Kind
