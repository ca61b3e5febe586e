// Package fastrand is a clean leaf the remote rule allows, so
// importing it must produce no diagnostic.
package fastrand

// Seed exists so importers have something to reference.
const Seed = 7
