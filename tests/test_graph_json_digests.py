"""Pinned graph file bytes: the SHA-256 of ``graph_to_json``.

``golden_digests.json`` pins trace bytes; this pins the graph side of
the file format.  ``graph_json_digests.json`` holds, per graph, the
digest of ``graph_to_json(g)`` and of ``graph_to_json(g, meta=META)``
for the golden-digest corpus and one graph of each generator pattern.
``META`` is shaped like the CLI's meta header: a nested dict, a list of
ints, a path turned into a string and non-ASCII text.

Regenerate only when a graph file change is intended::

    PYTHONPATH=src python tests/test_graph_json_digests.py
"""

import hashlib
import json
from pathlib import Path, PurePosixPath

from schedsim.generators import (
    EnclaveWorkloadParams,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
    gen_two_timestep_pattern,
)
from schedsim.prng import SplitMix64
from schedsim.task_graph import DeferMode, WaitMode, YieldMode, graph_to_json

from graph_draws import sample_graph
from test_golden_digests import GRAPHS, SEED

DIGESTS_PATH = Path(__file__).with_name("graph_json_digests.json")
META = {
    "tool": "schedsim",
    "invocation": {
        "cells_per_traversal": [3, 2, 5],
        "command": "generate",
        "k": 3,
        "output": str(PurePosixPath("runs") / "größe" / "graph.json"),
        "params": {"note": "Zürich – 東京 \U0001F680", "tabs": "a\tb\"c\\d"},
        "seed": 7,
    },
}


def pattern_graphs():
    return {
        "enclave": gen_enclave_pattern(
            EnclaveWorkloadParams(
                K=3,
                timesteps=2,
                enclaves_per_traversal=(2, 0, 5),
                traversal_cell_cost=2,
                enclave_cost_range=(1, 4),
                cells_per_traversal=(3, 1, 4),
                seed=11,
                defer_mode=DeferMode.MUST_DEFER,
                yield_mode=YieldMode.LATENCY,
                wait_mode=WaitMode.LATENCY,
            )
        ),
        "starvation": gen_starvation_pattern(
            StarvationParams(T=2, C=5, E=3, poll_cost=2, enclave_cost=4, seed=3)
        ),
        "nested-loop": gen_nested_loop_pattern(
            NestedLoopParams(
                K=3,
                loop_chunks=4,
                chunk_cost=5,
                loop_on_critical_task_only=False,
                serial_prefix_cost=2,
                serial_suffix_cost=3,
                chunk_priority=2,
            )
        ),
        "two-timestep": gen_two_timestep_pattern(
            K=3, traversal_cost=4, straggler_enclave_cost=9, wait_mode=WaitMode.LATENCY
        ),
    }


def pinned_graphs():
    rng = SplitMix64(SEED)
    graphs = {f"corpus-{i}": sample_graph(rng) for i in range(GRAPHS)}
    graphs.update(pattern_graphs())
    return graphs


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests(graphs) -> dict:
    return {
        name: [digest(graph_to_json(graph)), digest(graph_to_json(graph, meta=META))]
        for name, graph in graphs.items()
    }


def test_graph_json_matches_digests():
    golden = json.loads(DIGESTS_PATH.read_text())
    actual = compute_digests(pinned_graphs())
    assert sorted(actual) == sorted(golden)
    mismatches = [name for name in golden if actual[name] != golden[name]]
    assert not mismatches, f"{len(mismatches)} graph files changed, first: {mismatches[:5]}"


if __name__ == "__main__":
    rows = [f" {json.dumps(name)}: {json.dumps(row)}" for name, row in compute_digests(pinned_graphs()).items()]
    DIGESTS_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
