#!/usr/bin/env bash
# The golden-output gate. Runs one command in its own workdir and checks
# everything it writes against the golden <name> in docs/expected/:
#   1. its stdout must equal docs/expected/<name>.txt byte for byte;
#   2. every BENCH_*.json it writes must equal the docs/expected/ file of
#      the same name byte for byte (a JSON with no committed file fails);
#   3. where scripts/assert_<name>.py exists, it then runs in the workdir
#      on the fresh JSON.
# Every check runs even when an earlier one fails, so one run reports every
# difference; the gate fails at the end if any check failed.
# CMakeLists.txt registers one such test per docs/expected/*.txt (label
# `golden`). Re-baselining means copying build/golden/<name>/* over
# docs/expected/ and saying why in the change.
#
# Usage: check_golden.sh <name> <workdir> <command> [args...]
set -euo pipefail

name=$1
workdir=$2
shift 2
scripts=$(cd "$(dirname "$0")" && pwd)
expected=$(cd "$scripts/../docs/expected" && pwd)

mkdir -p "$workdir"
cd "$workdir"
rm -f BENCH_*.json

"$@" > "$name.txt" || { echo "$name exited with status $?"; exit 1; }
failed=0
diff -u "$expected/$name.txt" "$name.txt" || failed=1

for json in BENCH_*.json; do
    [ -e "$json" ] || continue
    if [ ! -e "$expected/$json" ]; then
        echo "$name wrote $json, which has no committed docs/expected/$json"
        failed=1
    else
        diff -u "$expected/$json" "$json" || failed=1
    fi
done

if [ -e "$scripts/assert_$name.py" ]; then
    "$scripts/assert_$name.py" || failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "$name does not match docs/expected/"
    exit 1
fi
echo "$name matches docs/expected/"
