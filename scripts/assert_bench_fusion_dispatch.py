#!/usr/bin/env python3
"""Acceptance claims of bench_fusion_dispatch, checked on its fresh JSON.

  (a) at least one launch-bound cell cuts launch overhead >= 2x when its
      registered chains are fused, and
  (b) the hybrid dispatcher's sustained QPS >= every static placement in
      every serving cell (predict-then-place never loses to a fixed
      placement).

Run by scripts/check_golden.sh in the bench's workdir.
"""

import json

records = json.load(open("BENCH_fusion_dispatch.json"))["records"]

ablation = [r for r in records if r["table"] == "launch_ablation"]
assert ablation, "no launch_ablation records"
best = max(r["launch_reduction"] for r in ablation)
assert best >= 2.0, f"no launch-bound cell reaches a 2x reduction (best {best})"

sweep = [r for r in records if r["table"] == "serving_sweep"]
assert sweep, "no serving_sweep records"
cells = {}
for r in sweep:
    cells.setdefault((r["model"], r["offered"]), {})[r["mode"]] = r
for key, by_mode in cells.items():
    hybrid = by_mode["hybrid"]["achieved_qps"]
    for mode, r in by_mode.items():
        assert hybrid >= r["achieved_qps"], (
            f"hybrid ({hybrid}) loses to {mode} ({r['achieved_qps']}) in {key}")

print(f"acceptance ok: best launch reduction {best}x, "
      f"hybrid >= statics in {len(cells)} cells")
