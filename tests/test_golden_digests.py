"""Golden trace digests: the simulator's determinism contract as data.

``golden_digests.json`` pins the SHA-256 of ``trace.to_json()`` for a
fixed corpus: graphs drawn by ``sample_graph`` from a SplitMix64 stream,
each simulated under every config in ``CONFIGS`` on 1-4 threads.  A
refactor that changes any trace byte fails here.  The corpus covers tied
tasks, latency waits, fcfs yields, throttling and scatter.

Regenerate only when a trace change is intended::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
from pathlib import Path

from schedsim import policies as pol
from schedsim.engine import SimConfig, simulate
from schedsim.prng import SplitMix64

from graph_draws import sample_graph

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SEED = 20260601
GRAPHS = 200
THREADS = (1, 2, 3, 4)
CONFIGS = {
    "reference": pol.reference(),
    "reference_bound2": pol.reference(queue_bound=2),
    "fcfs": pol.fcfs(),
    "extended": pol.extended(),
    "extended_bound2": pol.extended(queue_bound=2),
}


def compute_digests() -> dict:
    """Per config name, one row per graph of per-thread-count digests."""
    rng = SplitMix64(SEED)
    graphs = [sample_graph(rng) for _ in range(GRAPHS)]
    digests = {}
    for name, policy in CONFIGS.items():
        rows = []
        for graph in graphs:
            row = []
            for threads in THREADS:
                trace = simulate(graph, SimConfig(thread_count=threads, policy=policy))
                row.append(hashlib.sha256(trace.to_json().encode()).hexdigest())
            rows.append(row)
        digests[name] = rows
    return {"seed": SEED, "graphs": GRAPHS, "threads": list(THREADS), "digests": digests}


def test_traces_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert (golden["seed"], golden["graphs"], golden["threads"]) == (SEED, GRAPHS, list(THREADS))
    actual = compute_digests()["digests"]
    assert sorted(actual) == sorted(golden["digests"])
    mismatches = [
        (name, graph, THREADS[col])
        for name, rows in golden["digests"].items()
        for graph, row in enumerate(rows)
        for col, digest in enumerate(row)
        if actual[name][graph][col] != digest
    ]
    assert not mismatches, f"{len(mismatches)} traces changed, first: {mismatches[:5]}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
