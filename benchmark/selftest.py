#!/usr/bin/env python3
"""Self-test of the repository benchmark (`ctest --test-dir build-benchmark`).

usage: selftest.py DGNN_BENCHMARK BENCHMARK_JSON

For every workload, in --smoke mode: an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, a traced run prints every per-layer
metric, each result line has the contract's keys and reports no failure, and
a second untraced run gives identical simulated metrics.
"""

import json
import os
import subprocess
import sys

HOST_METRICS = {"host_s", "setup_s", "peak_rss_mb"}


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    duplicates = sorted({k for k in keys if keys.count(k) > 1})
    if duplicates:
        raise AssertionError(f"result line repeats keys {duplicates}")
    return dict(pairs)


def run(binary, workload, trace):
    trace_dir = os.path.join(os.path.dirname(os.path.abspath(binary)),
                             "selftest_trace")
    out = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--seconds", "0",
         "--trace", str(trace), "--trace-dir", trace_dir],
        check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(out[-1], object_pairs_hook=unique_keys)
    printed = {}
    for line in out[:-1]:
        line_workload, name, value, unit = line.split()
        if line_workload != workload:
            raise AssertionError(f"line names workload {line_workload}: {line}")
        if name in printed:
            raise AssertionError(f"metric {name} printed twice")
        printed[name] = {"value": float(value), "unit": unit}
    return result, printed


def check_run(spec, workload, trace, result, printed):
    errors = []
    group = "per_layer" if trace else "end_to_end"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        errors.append(f"{group}: missing {missing} extra {extra} wrong unit {wrong}")
    if printed != result["metrics"]:
        errors.append("printed lines differ from the result line")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def main():
    binary, bench_json = sys.argv[1:3]
    with open(bench_json) as f:
        spec = json.load(f)
    workloads = subprocess.run([binary, "--list"], check=True,
                               capture_output=True, text=True).stdout.split()
    errors = []
    if sorted(workloads) != sorted(w["name"] for w in spec["workloads"]):
        errors.append(f"workloads {workloads} differ from BENCHMARK.json")
    for workload in workloads:
        first = None
        for trace in (0, 1, 0):
            result, printed = run(binary, workload, trace)
            errors += check_run(spec, workload, trace, result, printed)
            if trace:
                continue
            simulated = {n: m["value"] for n, m in result["metrics"].items()
                         if n not in HOST_METRICS}
            if first is None:
                first = simulated
            elif simulated != first:
                errors.append(f"{workload}: two smoke runs differ in simulated metrics")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
