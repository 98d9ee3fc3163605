#!/usr/bin/env bash
# Builds nectar-perfbench from the checkout it is run in and runs it with
# the given arguments:
#
#   bash cmd/nectar-perfbench/run.sh --workload cab-rpc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the Go
# command's own state (GOPATH, telemetry) and the benchmark's spans and
# profiles all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cluster.go" ]; then
	echo "nectar-perfbench: run from the root of a nectar checkout" >&2
	exit 2
fi
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/nectar-perfbench" ./cmd/nectar-perfbench
exec "$build/nectar-perfbench" "$@"
