#!/usr/bin/env bash
# Build pagesim_bench from this source tree (incrementally, into
# .bench_build/pagesim_bench at the repository root), then run it with
# the given arguments. Build output goes to stderr, so the last line of
# stdout stays the benchmark's result object.
#
#   bash bench/pagesim_bench/run.sh --workload paper-grid --seed 1 \
#       --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/pagesim_bench"

if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >&2; then
    echo "pagesim_bench: error: build failed" >&2
    exit 2
fi
exec "$build/pagesim_bench" "$@"
