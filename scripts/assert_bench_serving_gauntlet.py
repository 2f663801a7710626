#!/usr/bin/env python3
"""Acceptance claims of bench_serving_gauntlet, checked on its fresh JSON.

  (a) no cell clamps a latency sample into the histogram's top bucket
      (overflow 0), so every p99 is unbiased;
  (b) in every (scenario, model) cell the pipelined executor sustains at
      least the serial executor's rate with a p99 no higher: overlapping
      the host build with device work never loses; and
  (c) for every cacheable model (one with a non-zero hit rate anywhere),
      on each executor, the worst hit rate across the cache-adversarial
      access regimes (every scenario whose access part is not "recurrent")
      is below the poisson/recurrent baseline's; and
  (d) every cell ran under the happens-before checker (ops > 0) and came
      back CLEAN: the overlap the pipelined executor buys is race-free.

Run by scripts/check_golden.sh in the bench's workdir.
"""

import json

records = json.load(open("BENCH_serving_gauntlet.json"))["records"]
assert records, "no records"

cells = {}
for r in records:
    where = f"{r['scenario']} {r['model']} {r['executor']}"
    assert r["overflow"] == 0, f"{where}: overflow {r['overflow']}"
    assert r["ops"] > 0, f"{where}: the hazard checker saw no operation"
    assert r["verdict"] == "CLEAN", (
        f"{where}: {r['hazards']} hazards ({r['hazard_occurrences']} "
        f"occurrences)")
    cells.setdefault((r["scenario"], r["model"]), {})[r["executor"]] = r

for (scenario, model), by_executor in cells.items():
    serial = by_executor["serial"]
    pipelined = by_executor["pipelined"]
    assert pipelined["achieved_qps"] >= serial["achieved_qps"], (
        f"{scenario} {model}: pipelined {pipelined['achieved_qps']} qps < "
        f"serial {serial['achieved_qps']}")
    assert pipelined["p99_ms"] <= serial["p99_ms"], (
        f"{scenario} {model}: pipelined p99 {pipelined['p99_ms']} ms > "
        f"serial {serial['p99_ms']}")

BASELINE = "poisson/recurrent"
cacheable = sorted({r["model"] for r in records if r["cache_hit_rate"] > 0})
assert cacheable, "no cacheable model"
for model in cacheable:
    for executor in ("serial", "pipelined"):
        rates = {s: by_executor[executor]["cache_hit_rate"]
                 for (s, m), by_executor in cells.items() if m == model}
        baseline = rates[BASELINE]
        adversarial = {s: rate for s, rate in rates.items()
                       if s.split("/")[1] != "recurrent"}
        assert adversarial, f"{model}: no adversarial scenario"
        worst = min(adversarial, key=adversarial.get)
        assert adversarial[worst] < baseline, (
            f"{model} {executor}: worst adversarial hit rate "
            f"{adversarial[worst]} ({worst}) is not below the "
            f"{BASELINE} baseline {baseline}")

print(f"acceptance ok: 0 overflow and CLEAN in all {len(records)} cells, "
      f"pipelined >= serial in {len(cells)} cells, adversarial hit rate "
      f"below baseline for {', '.join(cacheable)}")
