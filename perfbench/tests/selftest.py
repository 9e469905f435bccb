#!/usr/bin/env python3
"""Self-test of the serving benchmark, at tiny scale.

    python3 perfbench/tests/selftest.py

For every workload in BENCHMARK.json and both modes, runs perfbench/run.py
on small tables and checks that the result line has exactly the contract's
keys, that every metric of the mode is present by name with its unit, and
that the oracle passed (correct, nothing failed). It also checks that a
second run of the same seed repeats the declared-exact counters (run.py
flags a mismatch as incorrect). Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            try:
                for _ in range(2):  # The second run exercises the repeat check.
                    result = run(workload, trace)
                    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
                    assert result["correct"] is True, result
                    assert result["failed"] == 0 and result["attempted"] >= 1, result
                    names = {m["name"]: m["unit"] for m in wanted}
                    assert set(result["metrics"]) == set(names), sorted(result["metrics"])
                    for name, unit in names.items():
                        metric = result["metrics"][name]
                        assert metric["unit"] == unit, (name, metric)
                        assert isinstance(metric["value"], (int, float)), (name, metric)
                print(f"PASS {workload} trace={trace}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
