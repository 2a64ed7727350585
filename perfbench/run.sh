#!/usr/bin/env bash
# Builds cmd/cresd and the perfbench command from the checkout's sources,
# then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload appraise-hot --seed 3 --seconds 45 --trace 0
#
# Every build product, the Go build cache and the run's scratch files
# stay under .bench_build/ in the checkout. Build output goes to
# standard error; standard output carries only the result line.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cresd" ]; then
	echo "perfbench: run from the root of a cres checkout (no go.mod or cmd/cresd here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
go build -o "$build/bin/cresd" ./cmd/cresd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --cresd "$build/bin/cresd" --work "$build/perfbench" "$@"
