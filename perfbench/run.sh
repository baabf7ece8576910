#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload report --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build/ in the
# current directory; no network access is attempted.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
