#!/usr/bin/env bash
# Proves the golden gate catches drift. A stand-in executable named after a
# real golden target replays that target's committed outputs through
# scripts/check_golden.sh. The exact replay must pass; replaying it with one
# digit of the text changed, or one byte of the BENCH json changed, must
# fail. Registered as the `golden_gate_selftest` CTest.
#
# Usage: golden_gate_selftest.sh <workdir>
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
expected=$repo/docs/expected
workdir=$1
target=bench_shard_scaling
json=BENCH_shard_scaling.json
perturb='0,/1/s/1/2/'  # the first '1' in the file becomes '2'

# gate <sed script for the text> <sed script for the json>
gate() {
    rm -rf "$workdir"
    mkdir -p "$workdir/bin"
    cat > "$workdir/bin/$target" << EOF
#!/usr/bin/env bash
sed '$1' '$expected/$target.txt'
sed '$2' '$expected/$json' > $json
EOF
    chmod +x "$workdir/bin/$target"
    "$repo/scripts/check_golden.sh" "$workdir/bin/$target" "$workdir/run" \
        > /dev/null 2>&1
}

if ! gate '' ''; then
    echo "FAIL: the gate rejects an exact replay of $target"
    exit 1
fi
if gate "$perturb" ''; then
    echo "FAIL: the gate passes a one-digit change to $target.txt"
    exit 1
fi
if gate '' "$perturb"; then
    echo "FAIL: the gate passes a one-byte change to $json"
    exit 1
fi
echo "golden gate passes an exact replay and catches text and json drift"
