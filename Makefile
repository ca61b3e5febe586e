GO ?= go

.PHONY: all build fmt vet lint test race chaos bench bench-coord bench-load profile ci

all: build

build:
	$(GO) build ./...

# fmt fails if any file is not gofmt-clean, printing the offenders.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs fxlint, the repo's own analyzer suite (see internal/lint):
# determinism, layering, resetcomplete and truncation.  The second
# pass analyzes the GOARCH=386 file set: fxlint itself is built
# natively and reads GOARCH at run time (the loader passes it to
# go list and go/types), so 386-only files and sizes are covered
# without executing a 386 binary.
lint:
	@mkdir -p .bin
	$(GO) build -o .bin/fxlint ./cmd/fxlint
	.bin/fxlint ./...
	GOARCH=386 .bin/fxlint ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite.  -short skips the paper-scale
# calibration campaign, which is prohibitively slow under the race
# detector; the engine's fan-out paths are all exercised regardless.
race:
	$(GO) test -race -short ./...

# chaos runs the seeded fault-injection suite (see internal/chaos and
# the "Fault tolerance & chaos testing" README section) under the
# race detector — the same invocation as CI's chaos job.  Reproduce a
# nightly failure by exporting its uploaded seeds first:
#
#   CHAOS_SEEDS=12345,67890 make chaos
chaos:
	$(GO) test -race -count=1 -run TestChaos ./internal/integration

# bench runs one benchmark set per layer of the stack and records
# each as a parsed result set in BENCH_<layer>.json through
# cmd/benchdiff, the same code path the CI bench-gate uses to diff a
# PR against its merge base (see .github/workflows/ci.yml).  Every
# layer runs -count >= 2 and the parser keeps the fastest run,
# damping machine noise before the 15% gate sees the numbers.
#
#   make bench                # all layers, then a parsed summary
#   benchdiff old/ new/       # diff two directories of BENCH files
#
# BENCHTIME scales the micro-benchmark runs; session-, sweep- and
# study-level benchmarks use fixed iteration counts because one op
# already spans millions of simulated cycles.  A FullReport render
# takes ~1 ms, so it runs for BENCHTIME in its own go test call.
BENCHTIME ?= 0.2s

# bench_layer runs one layer's benchmarks as test2json events and
# parses them into $(1); $(2) is the bench regex, $(3) the package,
# $(4) extra go test flags.
define bench_layer
	$(GO) test -json -run '^$$' -bench '$(2)' $(4) $(3) > .bench.tmp
	$(GO) run ./cmd/benchdiff -parse -o $(1) .bench.tmp
endef

bench:
	$(call bench_layer,BENCH_fx8.json,ClusterStep|SharedCacheLookup|MemSystem,./internal/fx8,-benchtime $(BENCHTIME) -count 3)
	$(call bench_layer,BENCH_concentrix.json,SystemStep|VMTouch,./internal/concentrix,-benchtime $(BENCHTIME) -count 3)
	$(call bench_layer,BENCH_monitor.json,CollectSample|DASObserve,./internal/monitor,-benchtime $(BENCHTIME) -count 3)
	$(call bench_layer,BENCH_core.json,RunRandomSession|RunTriggeredSession|DecodeStudy|EncodeStudy,./internal/core,-benchtime 10x -count 2)
	$(GO) test -json -run '^$$' -bench 'SweepPoint' -benchtime 5x -count 2 ./internal/experiments > .bench.tmp
	$(GO) test -json -run '^$$' -bench 'FullReport' -benchtime $(BENCHTIME) -count 3 ./internal/experiments >> .bench.tmp
	$(GO) run ./cmd/benchdiff -parse -o BENCH_experiments.json .bench.tmp
	$(call bench_layer,BENCH_service.json,ServiceStudy|MetricsRecord,./internal/service,-benchtime 20x -count 2)
	$(call bench_layer,BENCH_obs.json,HistogramObserve|PrometheusRender|MutexMapRecord|TracerRecord,./internal/obs,-benchtime $(BENCHTIME) -count 3)
	$(call bench_layer,BENCH_study.json,RunStudy,./internal/core,-benchtime 1x -count 3)
	$(call bench_layer,BENCH_coord.json,JobCold|JobResume,./internal/coord,-benchtime 5x -count 2)
	@rm -f .bench.tmp
	$(GO) run ./cmd/benchdiff -print BENCH_fx8.json BENCH_concentrix.json BENCH_monitor.json BENCH_core.json BENCH_experiments.json BENCH_service.json BENCH_obs.json BENCH_study.json BENCH_coord.json

# bench-coord measures the fleet coordinator's job machinery alone:
# the same campaign job run cold (every unit computed) and resumed
# against a warm unit cache (every unit replayed from the store) —
# the checkpoint/resume overhead the /v1/jobs API rides on.
bench-coord:
	$(call bench_layer,BENCH_coord.json,JobCold|JobResume,./internal/coord,-benchtime 5x -count 2)
	@rm -f .bench.tmp
	$(GO) run ./cmd/benchdiff -print BENCH_coord.json

# bench-load measures the fx8d service under open-loop traffic with
# cmd/loadgen: steady and bursty arrivals over the artefact, unit and
# mixed request mixes, recorded as BENCH_service-load.json (p50
# latency gates, p95/p99/rps/error/shed rates inform) and diffed by
# the CI bench gate like any other layer.  One run's p50 swings more
# than the gate's threshold on unchanged code, so the harness runs
# three times and benchdiff -parse folds the runs the way -count
# repeats fold (fastest p50).  LOADGEN_FLAGS passes extra harness
# flags, e.g. -saturate or -slo-p99 50ms.
bench-load:
	for i in 1 2 3; do $(GO) run ./cmd/loadgen -out .bench-load.$$i.json $(LOADGEN_FLAGS) || exit 1; done
	$(GO) run ./cmd/benchdiff -parse -o BENCH_service-load.json .bench-load.1.json .bench-load.2.json .bench-load.3.json
	@rm -f .bench-load.*.json
	$(GO) run ./cmd/benchdiff -print BENCH_service-load.json

# profile records CPU and heap profiles of the session and study
# benchmarks into profiles/ (gitignored), together with the test
# binaries pprof needs to symbolize them.  See README "Profiling" for
# the pprof workflow.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'RunRandomSession|RunTriggeredSession' -benchtime 30x \
		-cpuprofile profiles/session.cpu.pprof -memprofile profiles/session.mem.pprof \
		-o profiles/session.test ./internal/core
	$(GO) test -run '^$$' -bench 'RunStudy/workers=max' -benchtime 1x \
		-cpuprofile profiles/study.cpu.pprof -memprofile profiles/study.mem.pprof \
		-o profiles/study.test ./internal/core
	@echo "profiles written to profiles/; inspect with e.g."
	@echo "  go tool pprof -top profiles/session.test profiles/session.cpu.pprof"
	@echo "  go tool pprof -top -sample_index=alloc_objects profiles/session.test profiles/session.mem.pprof"

ci: fmt vet lint build test race
