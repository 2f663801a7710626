#!/usr/bin/env python3
"""Acceptance claims of bench_shard_scaling, checked on its fresh JSON.

  (a) every 1-shard record routes its whole load to its lone shard
      (load_imbalance 1.000), and every 1-shard record of a model reports
      the same qps, p50 and p99 whatever the partitioner and link: one
      shard cuts nothing, so neither can matter; and
  (b) every multi-shard record keeps its busiest shard within 10% of the
      mean load (load_imbalance <= 1.10): cut interactions go to the
      less-loaded endpoint owner. Source-only routing reads 1.129 and more
      on this trace.

Run by scripts/check_golden.sh in the bench's workdir.
"""

import json

records = json.load(open("BENCH_shard_scaling.json"))["records"]
assert records, "no records"

one_shard = {}
for r in records:
    cell = f"{r['model']} {r['partitioner']} {r['interconnect']} " \
           f"{r['shards']} shards"
    if r["shards"] == "1":
        assert r["load_imbalance"] == 1.0, (
            f"{cell}: load_imbalance {r['load_imbalance']} != 1.000")
        one_shard.setdefault(r["model"], set()).add(
            (r["achieved_qps"], r["p50_ms"], r["p99_ms"]))
    else:
        assert r["load_imbalance"] <= 1.10, (
            f"{cell}: load_imbalance {r['load_imbalance']} > 1.10")
assert one_shard, "no 1-shard records"
for model, cells in one_shard.items():
    assert len(cells) == 1, (
        f"{model} 1-shard records differ across partitioner x link: {cells}")

worst = max(r["load_imbalance"] for r in records)
print(f"acceptance ok: {len(one_shard)} models' 1-shard records identical, "
      f"worst load_imbalance {worst:.3f}")
