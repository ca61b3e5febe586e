// Package remote mirrors the unit transport, which may import only
// obs, retry and fastrand: the allowed fastrand import is silent, the
// store import is a violation.
package remote

import (
	"repro/internal/fastrand"
	"repro/internal/store" // want "repro/internal/remote must not depend on repro/internal/store"
)

// Uses keeps both imports live.
const Uses = store.Kind + string(rune('0'+fastrand.Seed))
