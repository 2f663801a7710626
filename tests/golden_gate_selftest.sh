#!/usr/bin/env bash
# Proves the golden gate catches drift. A stand-in replays the committed
# outputs of bench_shard_scaling through scripts/check_golden.sh: the exact
# replay must pass; replaying it with one digit of the text changed, or one
# byte of the BENCH json changed, must fail, and with both changed one run
# must show both diffs. Given the offline exhibit
# driver, the same holds for a golden run by exhibit name: the exact run of
# one exhibit must pass, and the same run with one digit changed, or an
# unknown exhibit name, must fail. Registered as the `golden_gate_selftest`
# CTest.
#
# Usage: golden_gate_selftest.sh <workdir> [bench_offline_exhibits]
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
expected=$repo/docs/expected
workdir=$1
driver=${2:-}
perturb='0,/1/s/1/2/'  # the first '1' in the file becomes '2'

fail() {
    echo "FAIL: $1"
    exit 1
}

# passes <golden> <command> [args...]: whether the gate passes the command.
passes() {
    local name=$1
    shift
    rm -rf "$workdir/run"
    "$repo/scripts/check_golden.sh" "$name" "$workdir/run" "$@" > /dev/null 2>&1
}

# replay <sed script for the text> <sed script for the json>
rm -rf "$workdir"
mkdir -p "$workdir"
cat > "$workdir/replay" << EOF
#!/usr/bin/env bash
sed "\$1" '$expected/bench_shard_scaling.txt'
sed "\$2" '$expected/BENCH_shard_scaling.json' > BENCH_shard_scaling.json
EOF
chmod +x "$workdir/replay"

passes bench_shard_scaling "$workdir/replay" '' '' ||
    fail "the gate rejects an exact replay of bench_shard_scaling"
! passes bench_shard_scaling "$workdir/replay" "$perturb" '' ||
    fail "the gate passes a one-digit change to bench_shard_scaling.txt"
! passes bench_shard_scaling "$workdir/replay" '' "$perturb" ||
    fail "the gate passes a one-byte change to BENCH_shard_scaling.json"
# A run whose text and json both drift reports both diffs: a failing check
# does not stop the ones after it.
rm -rf "$workdir/run"
both=$("$repo/scripts/check_golden.sh" bench_shard_scaling "$workdir/run" \
    "$workdir/replay" "$perturb" "$perturb" 2>&1) &&
    fail "the gate passes a change to both bench_shard_scaling files"
grep -q '^+++ bench_shard_scaling.txt' <<< "$both" &&
    grep -q '^+++ BENCH_shard_scaling.json' <<< "$both" ||
    fail "the gate stops at the first failing diff"
echo "golden gate passes an exact replay and catches text and json drift," \
    "reporting both in one run"

if [ -n "$driver" ]; then
    golden=bench_table1_model_summary
    cat > "$workdir/perturbed" << EOF
#!/usr/bin/env bash
set -o pipefail
'$driver' "\$@" | sed '$perturb'
EOF
    chmod +x "$workdir/perturbed"

    passes $golden "$driver" table1_model_summary ||
        fail "the gate rejects an exact run of exhibit table1_model_summary"
    ! passes $golden "$workdir/perturbed" table1_model_summary ||
        fail "the gate passes a one-digit change to $golden.txt"
    ! passes $golden "$driver" no_such_exhibit ||
        fail "the gate passes an unknown exhibit name"
    echo "golden gate passes an exact exhibit run and catches a changed digit" \
        "and an unknown exhibit name"
fi
