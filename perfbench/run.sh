#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload la_dense --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build cache, scratch files and traces stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
# A fingerprint of the engine and benchmark sources, for checkouts without git.
fingerprint=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
exec "$out/bin/perfbench" --work-dir "$out/work" --source "$fingerprint" "$@"
