// Package obs mirrors the real telemetry substrate: it imports no
// repro package, so it is the one the remote rule allows.
package obs

// Kind identifies the fixture package in diagnostics.
const Kind = "obs"
