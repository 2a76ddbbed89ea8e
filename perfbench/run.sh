#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fix-grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a run reads and
# writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
