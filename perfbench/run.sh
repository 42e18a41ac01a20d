#!/usr/bin/env bash
# Builds the benchmark and the wisync-server and wisync-worker binaries
# from this checkout, then runs one workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload golden --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a wisync checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/bin/" ./cmd/wisync-server ./cmd/wisync-worker >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -tmp "$out/tmp" "$@"
