#!/usr/bin/env python3
"""Verdicts of bench_hazard_audit, checked on its fresh JSON: every clean
serving run is CLEAN, and a mutation is detected exactly when it drops a
sync edge.

Run by scripts/check_golden.sh in the bench's workdir.
"""

import json

records = json.load(open("BENCH_hazard_audit.json"))["records"]
clean = [r for r in records if r["section"] == "clean_run"]
mutations = [r for r in records if r["section"] == "mutation"]
assert clean and mutations, "missing audit sections"
for r in clean:
    assert r["verdict"] == "CLEAN", f"hazardous serving cell: {r}"
for r in mutations:
    expect_clean = r["dropped_edge"] == "none"
    assert (r["verdict"] == "CLEAN") == expect_clean, f"mutation miss: {r}"

print(f"verdicts ok: {len(clean)} clean runs, {len(mutations)} mutations")
