#!/usr/bin/env bash
# The golden-output gate. Runs one bench or example binary in its own
# workdir and checks everything it writes against docs/expected/:
#   1. its stdout must equal docs/expected/<binary>.txt byte for byte;
#   2. every BENCH_*.json it writes must equal the docs/expected/ file of
#      the same name byte for byte (a JSON with no committed file fails);
#   3. the optional assert script then runs in the workdir on the fresh
#      JSON.
# CMakeLists.txt registers one such test per docs/expected/*.txt (label
# `golden`). Re-baselining means copying build/golden/<binary>/* over
# docs/expected/ and saying why in the change.
#
# Usage: check_golden.sh <binary> <workdir> [assert-script]
set -euo pipefail

binary=$1
workdir=$2
assert=${3:-}
expected=$(cd "$(dirname "$0")/../docs/expected" && pwd)
name=$(basename "$binary")

mkdir -p "$workdir"
cd "$workdir"
rm -f BENCH_*.json

"$binary" > "$name.txt" || { echo "$name exited with status $?"; exit 1; }
diff -u "$expected/$name.txt" "$name.txt"

for json in BENCH_*.json; do
    [ -e "$json" ] || continue
    if [ ! -e "$expected/$json" ]; then
        echo "$name wrote $json, which has no committed docs/expected/$json"
        exit 1
    fi
    diff -u "$expected/$json" "$json"
done

if [ -n "$assert" ]; then
    "$assert"
fi

echo "$name matches docs/expected/"
