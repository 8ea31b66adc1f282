#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about half a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --scale tiny`` with
tracing off and on, and checks that the last output line names exactly
the end-to-end, or per-layer, metrics of BENCHMARK.json with their units.
It then checks that the correctness gate rejects a wrong stored digest,
and that the benchmark fails without a result line when the schedsim
sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise AssertionError("nothing attempted")
    return result


def check_metrics(result, declared, label):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{workload} --trace {trace}"
            result = result_of(bench(workload, trace))
            check_metrics(result, declared, label)
            if not result["correct"]:
                raise AssertionError(f"{label}: gate failed at tiny size")
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
        spans = OUT / f"spans-{workload}-seed1-tiny.json"
        if not json.loads(spans.read_text())["spans"]:
            raise AssertionError(f"{workload}: no spans written")

    # The gate must reject a trace whose digest differs from the stored one.
    OUT.mkdir(exist_ok=True)
    bogus = OUT / "bogus-digests.json"
    keys = ("storm/reference", "storm/fcfs", "storm/extended")
    bogus.write_text(json.dumps({"tiny": {"1": {"poll-storm": {k: "0" * 64 for k in keys}}}}))
    proc = bench("poll-storm", 0, "--digests", str(bogus))
    result = result_of(proc)
    if result["correct"] or result["failed"] < len(keys) or "digests.json" not in proc.stdout:
        raise AssertionError("gate did not reject wrong digests")
    print("ok  the gate rejects wrong digests")

    # Without the schedsim sources the benchmark must fail and print no result.
    bare = OUT / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("poll-storm", 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError("benchmark ran without the schedsim sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  a checkout without src/ fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
