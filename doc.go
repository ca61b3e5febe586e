// Package repro reproduces Patrick J. McGuire's "A Measurement-Based
// Study of Concurrency in a Multiprocessor" (University of Illinois /
// NASA CR-180318, 1987): a simulated Alliant FX/8 Computational
// Cluster (internal/fx8), a Concentrix-like operating system layer
// (internal/concentrix), a synthetic CSRD-style production workload
// (internal/workload), DAS 9100-class hardware monitoring
// (internal/monitor), the study's concurrency-measurement methodology
// (internal/core), and SAS-style analysis rendering (internal/sas,
// internal/experiments).
//
// Campaigns and sweeps execute on the shared session-execution engine
// (internal/engine): independent sessions — each booting its own
// machine, OS and workload from a derived seed — fan out over a
// bounded worker pool and are reduced in session order, so results
// are identical for every worker count.  core.RunStudyWorkers and
// experiments.RunSweepConfig take the worker count; the cmd tools
// surface it as -workers (default: one worker per CPU).
//
// The session lifecycle is allocation-free after warm-up: each worker
// rebuilds its session in place on a pooled core.SessionArena —
// Reset()-style reuse of the cluster, OS, analyzer and workload
// generator, with concurrent-loop bodies regenerated into per-CE
// buffers (fx8.Loop.BodyInto) — rather than booting fresh state.
// Reuse is bit-exact, and removing the shared allocator/GC traffic is
// what lets the embarrassingly-parallel campaign actually scale with
// workers.
//
// Completed campaigns flow through a two-tier cache
// (core.StudyCache): an in-process memo (bounded, FIFO-evicted) in
// front of an optional content-addressed on-disk store
// (internal/store), in front of the compute path.  Store entries are
// keyed by a stable hash of the canonically encoded StudyConfig,
// written atomically with a versioned, checksummed header, and
// recomputed when corrupt or format-incompatible; the cmd tools'
// -cache DIR flag and the daemon share one store directory.
// Concurrent requests for the same configuration singleflight down to
// one campaign run.
//
// Sessions and sweep points are independent units of work (unit in,
// result out, engine.Runner): engine.Local computes them in-process,
// and the fleet coordinator (internal/coord) runs them as jobs across
// fx8d backends, which pull units from a work-stealing ledger
// (engine.Ledger) and POST each to /v1/run/session or /v1/run/sweep
// through internal/remote's transport.  A failing backend is
// abandoned and its units are stolen by peers or computed locally on
// engine.Drain, the engine's one local pool (RunAll runs on it too).
// Results are reassembled in unit order by the reduction local runs
// use (core.AssembleStudy for campaigns), so fleet output is
// byte-identical to local output for every backend count.  cmd/sweep,
// cmd/measure and cmd/figures run a temporary job over a fixed fleet
// with -backends host:port,..., or submit a persistent one to a
// daemon with -job URL.  The in-process memo behind the caches (engine.Memo)
// never evicts an in-flight entry, preserving singleflight under cap
// pressure.
//
// The fx8d daemon (cmd/fx8d, internal/service) serves the campaign's
// artefacts over HTTP: the study summary, every table and figure, and
// the parameter sweeps as addressable JSON resources, plus per-unit
// execution endpoints for fleet jobs, campaign jobs whose SSE event
// stream reports their progress, per-endpoint latency and cache
// hit-rate counters, bounded request admission with a bounded wait
// queue (excess load shed as 429 + Retry-After), strong ETags with
// If-None-Match revalidation on artefact endpoints, and graceful
// shutdown.  cmd/loadgen drives the daemon with deterministic
// open-loop traffic — steady or bursty Poisson arrivals over
// artefact, unit and mixed request mixes — and records the resulting
// latency/throughput/shed profile as a perf set for the CI bench
// gate (make bench-load).
//
// The root package holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation, plus ablation benchmarks
// that toggle one modelled mechanism each (ablation_bench_test.go).
//
// # Benchmarking
//
// The session hot path is benchmarked at every layer: the fx8 cluster
// step loop, the shared cache and memory buses, the Concentrix
// scheduling tick, the monitor's sampling loop, both session kinds,
// the sweep point, and the daemon's warm /v1/study serving path.
// make bench records one parsed result set per layer
// (BENCH_<layer>.json) through internal/perf, and cmd/benchdiff
// parses, summarizes and diffs those sets against a regression
// threshold — the same code path the CI bench-gate job uses to
// compare a pull request against its merge base and fail the build
// on a hot-path regression.  Optimizations are pinned behavior-
// preserving by the golden paper-scale test and byte-identical
// canonical study output.
package repro
