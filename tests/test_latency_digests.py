"""Golden trace digests for latency waits.

The ``sample_graph`` corpus of ``golden_digests.json`` draws no group
ends, so it never filters a pick by a latency group's sync set.  This
corpus draws forests whose child waits and group ends are latency waits
half of the time, nested up to three levels and mixed with undeferred
spawns and polls.  Under the extended policies a helper at such a wait
may pick only from the intersection of the sync sets on its stack, and
``latency_digests.json`` pins the SHA-256 of ``trace.to_json()`` for
every forest on 1-4 threads.

Regenerate only when a trace change is intended::

    PYTHONPATH=src python tests/test_latency_digests.py
"""

import hashlib
import json
from pathlib import Path

from schedsim import policies as pol
from schedsim.engine import SimConfig, simulate
from schedsim.prng import SplitMix64

from graph_draws import tied_forest

DIGESTS_PATH = Path(__file__).with_name("latency_digests.json")
SEED = 20261018
FORESTS = 50
ROOTS = 6
THREADS = (1, 2, 3, 4)
CONFIGS = {
    "extended": pol.extended(),
    "extended_bound2": pol.extended(queue_bound=2),
}


def compute_digests() -> dict:
    """Per config name, one row per forest of per-thread-count digests."""
    rng = SplitMix64(SEED)
    forests = [tied_forest(rng, ROOTS, latency=True) for _ in range(FORESTS)]
    digests = {}
    for name, policy in CONFIGS.items():
        digests[name] = [
            [
                hashlib.sha256(
                    simulate(forest, SimConfig(thread_count=threads, policy=policy)).to_json().encode()
                ).hexdigest()
                for threads in THREADS
            ]
            for forest in forests
        ]
    return {"seed": SEED, "forests": FORESTS, "threads": list(THREADS), "digests": digests}


def test_latency_traces_match_golden_digests():
    golden = json.loads(DIGESTS_PATH.read_text())
    assert (golden["seed"], golden["forests"], golden["threads"]) == (SEED, FORESTS, list(THREADS))
    actual = compute_digests()["digests"]
    assert sorted(actual) == sorted(golden["digests"])
    mismatches = [
        (name, forest, THREADS[col])
        for name, rows in golden["digests"].items()
        for forest, row in enumerate(rows)
        for col, digest in enumerate(row)
        if actual[name][forest][col] != digest
    ]
    assert not mismatches, f"{len(mismatches)} traces changed, first: {mismatches[:5]}"


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
