#!/usr/bin/env python3
"""Write perfbench/digests.json: the SHA-256 of ``trace.to_json()`` for
every (workload, group, config) of the full-scale workloads.

Usage, from the repository root:

    python3 perfbench/make_digests.py [--seeds 0-31]

The taskgroup_end chains of deep-chain recurse once per chain level in
the engine's wait bookkeeping, so under the default recursion limit they
raise RecursionError.  This script raises the limit, so the stored digest
is the trace that a recursion-free engine must reproduce.  The benchmark
itself keeps the default limit and counts those runs as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (benchmark constants; imports no schedsim)
import workloads  # noqa: E402
from schedsim.engine import simulate  # noqa: E402

RECURSION_LIMIT = 20_000


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def digests_for(seed):
    out = {}
    for name, build in workloads.BUILDERS.items():
        wl = build(seed, "full")
        out[name] = {
            f"{group.name}/{r.config}": hashlib.sha256(
                simulate(wl.graphs[r.graph], r.sim).to_json().encode()
            ).hexdigest()
            for group in wl.groups
            for r in group.runs
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args()
    sys.setrecursionlimit(RECURSION_LIMIT)
    seeds = sorted(set(args.seeds) | {run.DEFAULT_SEED})
    full = {}
    for seed in seeds:
        full[str(seed)] = digests_for(seed)
        print(f"seed {seed} done", flush=True)
    run.DIGESTS.write_text(json.dumps({"full": full}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
