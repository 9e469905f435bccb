#!/usr/bin/env python3
"""The serving benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds perfbench_serve from source
(CMake, Release, into $CARGO_TARGET_DIR or .bench_build), runs the named
workload, checks that the counters declared exact repeat for the seed, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Full records, stamped with the run metadata,
are appended to .bench_out/records.jsonl; traced runs also write their span
log to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; the binary gets the rest after the build.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_serve"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench_serve")


def source_id():
    """The git commit of a clean checkout, else a hash of the measured tree
    (so the repeat ledger never compares two different programs)."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--",
                                "src", "CMakeLists.txt", "perfbench"],
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and dirty.returncode == 0 and not dirty.stdout.strip():
            return sha.stdout.strip()[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def check_repeat(record, args):
    """Compares the exact counters with earlier runs of the same source,
    workload, seed and length; keeps the varying counters' history.
    Returns (repeat_ok, mismatches, varying_spread)."""
    key = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-{args.scale}"
    ledger_dir = os.path.join(OUT_DIR, "repeat", record["meta"]["source_id"])
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, key + ".json")
    ledger = None
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    exact = record["exact_counters"]
    mismatches = []
    if ledger is None:
        ledger = {"exact_counters": exact, "varying_counters": []}
    else:
        for name, value in ledger["exact_counters"].items():
            if exact.get(name) != value:
                mismatches.append(f"{name}: {exact.get(name)!r} != earlier {value!r}")
    ledger["varying_counters"].append(record["varying_counters"])
    with open(path, "w") as f:
        json.dump(ledger, f)
    spread = {}
    for name in record["varying_counters"]:
        values = [v[name] for v in ledger["varying_counters"] if name in v]
        spread[name] = {"min": min(values), "max": max(values), "runs": len(values)}
    return not mismatches, mismatches, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small tables (same code paths)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a dbsa checkout (no CMakeLists.txt or src/)", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--scale", args.scale, "--source-id", source_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench_serve exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_serve printed no record")
    record = json.loads(lines[-1])

    repeat_ok, mismatches, spread = check_repeat(record, args)
    for m in mismatches:
        print(f"perfbench: exact counter changed for this seed: {m}", file=sys.stderr)
    record["repeat"] = {"ok": repeat_ok, "mismatches": mismatches,
                        "varying_spread": spread}
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for example in record["failure_examples"]:
        print(f"perfbench: oracle: {example}", file=sys.stderr)

    produced = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        got = produced.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            fail(f"metric {m['name']} missing or not in {m['unit']}: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(record["attempted"])
    failed = int(record["failed"])
    correct = record["checks"]["oracle_ok"] and repeat_ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
