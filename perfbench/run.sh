#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Run from the repository root.  Every file the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

# The commit, or outside a git checkout a digest of the Go sources.
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null ||
		{ find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
			LC_ALL=C sort | xargs cat | sha256sum | sed 's/ .*/ (sources)/'; })
fi
export PERFBENCH_COMMIT

# Build output goes to stderr: the result must be stdout's last line.
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
