#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it. Run from the
# repository root:
#
#   bash fleetbench/run.sh --workload steady-wide --seed 1 --seconds 20 --trace 0
#
# Build products (binary, Go build cache, temp files) go to .bench_build/
# under the current directory. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp"

export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

sha="$(git -C "${here}" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "${here}" && go build -buildvcs=false -ldflags "-X main.gitSHA=${sha}" -o "${out}/fleetbench" .) >&2

exec "${out}/fleetbench" "$@"
