#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload miss-web --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the generated graph artifacts and the span
# files all go under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --workdir "$out" "$@"
