#!/usr/bin/env bash
# Builds the benchmark, with the library from source, into build-benchmark/
# and runs it:
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Without --workload it runs every workload, each in its own process. Build
# output goes to stderr, so stdout ends with the result line; trace files go
# to build-benchmark/trace/W/.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/build-benchmark"

cmake -S "$bench_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" -j 4 >&2
bin="$build_dir/dgnn_benchmark"

for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "$bin" --trace-dir "$build_dir/trace" "$@"
  fi
done
status=0
for workload in $("$bin" --list); do
  "$bin" --trace-dir "$build_dir/trace" --workload "$workload" "$@" || status=1
done
exit "$status"
