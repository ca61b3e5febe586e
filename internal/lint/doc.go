// Package lint is fxlint's analyzer suite: whole-program static
// checks for the invariants this reproduction depends on but the
// compiler cannot see.  Each has bitten the repo at least once; each
// began life as an ad-hoc per-struct test or CI grep and is encoded
// here as an analysis that holds everywhere, including in code that
// does not exist yet.
//
// The four analyzers:
//
//   - determinism: in the simulator and experiment packages (fx8,
//     concentrix, monitor, core, workload, fxasm, experiments)
//     sessions must be byte-identical across workers, arenas and
//     backends.  The analyzer forbids time.Now/time.Since, any use of
//     the process-global math/rand source (seeded local generators
//     and internal/fastrand are fine), and map iteration whose order
//     leaks into output: emitting bytes (Print/Write/Sum/Encode)
//     inside a range over a map, or appending map-iteration values to
//     an outer slice that is never sorted afterwards.  The
//     "collect keys, sort, iterate" idiom passes.
//
//   - resetcomplete: any type with a Reset method must cover every
//     field of its receiver struct — assign it, clear/copy it, pass
//     it by address, delegate to a method on the field, or overwrite
//     the whole receiver.  Calls to sibling methods on the receiver
//     (e.g. Reset calling Flush) contribute their coverage.  Fields
//     deliberately preserved across resets — configuration, derived
//     constants, backing arrays a guard field invalidates — opt out
//     with "// fxlint:keep" on the field declaration, which doubles
//     as documentation that the omission is intentional.  This is the
//     static generalization of the per-struct reflect guards the
//     session-arena work introduced: those verify one struct at one
//     version; this holds for every Reset, including future ones.
//
//   - layering: the import-DAG whitelist (LayerRules).  internal/obs
//     and internal/perf import no repro packages; the simulator stack
//     (fx8, concentrix, monitor, workload, fxasm) never depends on
//     service/remote/store/engine/obs; core and experiments never
//     depend on service/remote; remote, the HTTP transport, imports
//     no repro package but obs.  Checked transitively, and a
//     violation names the first offending edge and the shortest
//     chain.  Replaces the CI grep that guarded only internal/obs.
//
//   - truncation: int(x) and int32(x) conversions of int64, uint64,
//     uint or uintptr values — the class that overflowed
//     StudyConfig.triggeredSpec and a since-deleted round-robin
//     backend pick once each on GOARCH=386, where int is 32 bits.  Conversions of constants
//     that fit and of operands reduced at the conversion site
//     (x % n, x & mask in the wide type) pass; conversions bounded
//     for non-local reasons annotate //fxlint:allow truncation with
//     the bound.  The analyzer assumes the 32-bit layout regardless
//     of host GOARCH, so amd64 CI catches 386 overflow.
//
// Suppressions: "//fxlint:allow <analyzer>[,<analyzer>] rationale"
// on the flagged line, or on its own line directly above, silences
// that diagnostic.  The rationale is not optional in spirit: a
// suppression without a stated bound or reason should not survive
// review.
//
// The driver (Load) is standard library only, like the module itself:
// packages are enumerated with `go list -json -deps` and type-checked
// from source with go/ast and go/types in dependency order, stdlib
// included, so analyzers see full type information without
// golang.org/x/tools.  Run `make lint` or `go run ./cmd/fxlint ./...`;
// CI runs the suite on every PR for both GOARCH=amd64 and GOARCH=386.
package lint
