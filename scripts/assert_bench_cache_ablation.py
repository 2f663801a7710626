#!/usr/bin/env python3
"""Acceptance claim of bench_cache_ablation, checked on its fresh text.

Online serving with a warm device cache: every cached session moves fewer
H2D bytes and has a lower p99 than the uncached session on the same
recurrent trace. Reads the serving table's numbers, not its verdict line.

Run by scripts/check_golden.sh in the bench's workdir.
"""

lines = open("bench_cache_ablation.txt").read().splitlines()
start = next(i for i, line in enumerate(lines)
             if line.startswith("Online serving with a warm device cache"))
table = [line for line in lines[start:] if line.startswith("| ")]
header = [cell.strip() for cell in table[0].strip("|").split("|")]
rows = {}
for line in table[1:]:
    cells = [cell.strip() for cell in line.strip("|").split("|")]
    if set(cells[0]) <= {"-"}:
        continue
    rows[cells[0]] = dict(zip(header, cells))

uncached = rows.pop("uncached")
assert rows, "no cached session rows"
for session, row in rows.items():
    for column in ("h2d (MB)", "p99 (ms)"):
        assert float(row[column]) < float(uncached[column]), (
            f"{session}: {column} {row[column]} not below uncached "
            f"{uncached[column]}")
print(f"acceptance ok: {len(rows)} cached sessions below uncached on H2D "
      f"({uncached['h2d (MB)']} MB) and p99 ({uncached['p99 (ms)']} ms)")
