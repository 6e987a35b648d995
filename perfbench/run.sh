#!/usr/bin/env bash
# Builds the streamed-decode benchmark from the checkout's sources and
# runs it with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload stream_cr50 --seed 1 --seconds 20 --trace 0
#
# Every build artefact (compiler cache, module cache, Go's own settings
# and telemetry) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
