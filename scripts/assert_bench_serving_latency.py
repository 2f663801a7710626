#!/usr/bin/env python3
"""Acceptance claim of bench_serving_latency, checked on its fresh text.

Pipelined vs serial sustained QPS: for every model, the pipelined
executor sustains at least the serial executor's maxQPS. Reads the
table's numbers, not its verdict column.

Run by scripts/check_golden.sh in the bench's workdir.
"""

lines = open("bench_serving_latency.txt").read().splitlines()
start = next(i for i, line in enumerate(lines)
             if line.startswith("Pipelined vs serial sustained QPS"))
table = [line for line in lines[start:] if line.startswith("| ")]
header = [cell.strip() for cell in table[0].strip("|").split("|")]
models = 0
for line in table[1:]:
    cells = [cell.strip() for cell in line.strip("|").split("|")]
    if set(cells[0]) <= {"-"}:
        continue
    row = dict(zip(header, cells))
    serial = float(row["serial maxQPS"])
    pipelined = float(row["pipelined maxQPS"])
    assert pipelined >= serial, (
        f"{row['model']}: pipelined maxQPS {pipelined:g} below serial "
        f"{serial:g}")
    models += 1
assert models, "no models in the pipelined-vs-serial table"
print(f"acceptance ok: pipelined maxQPS >= serial for all {models} models")
