"""Pinned ``critical_path`` results: the length and the exact path.

The networkx oracle checks only the length, but
``analysis.undeferred_on_critical_path`` reads the path, so its
tie-break ("smallest (task, action) step by step") is part of the
contract.  ``critical_path_pins.json`` pins ``(length, sha256(path))``
for the golden-digest corpus, a 1,024-deep ``taskwait`` chain, a
1,024-deep ``taskgroup`` chain and a forest of many roots whose short
durations tie everywhere.

Regenerate only when a path change is intended::

    PYTHONPATH=src python tests/test_critical_path_pins.py
"""

import hashlib
import json
from pathlib import Path

from schedsim.prng import SplitMix64
from schedsim.task_graph import TaskgroupEnd, TaskwaitChildren, critical_path, validate

from graph_draws import sample_graph, spawn_chain, tied_forest
from test_golden_digests import GRAPHS, SEED

PINS_PATH = Path(__file__).with_name("critical_path_pins.json")
CHAIN_DEPTH = 1024
CHAIN_SEED = 1
FOREST_SEED = 7
FOREST_ROOTS = 300


def pin(graph):
    length, path = critical_path(graph)
    return [length, len(path), hashlib.sha256(json.dumps(path).encode()).hexdigest()]


def pinned_graphs():
    rng = SplitMix64(SEED)
    graphs = {f"corpus-{i}": sample_graph(rng) for i in range(GRAPHS)}
    chain_rng = SplitMix64(CHAIN_SEED)
    graphs["chain-taskwait"] = spawn_chain(CHAIN_DEPTH, TaskwaitChildren, chain_rng)
    graphs["chain-taskgroup"] = spawn_chain(CHAIN_DEPTH, TaskgroupEnd, chain_rng)
    graphs["tied-forest"] = tied_forest(SplitMix64(FOREST_SEED), FOREST_ROOTS)
    return graphs


def compute_pins(graphs) -> dict:
    return {name: pin(graph) for name, graph in graphs.items()}


def test_critical_paths_match_pins():
    graphs = pinned_graphs()
    assert [name for name, graph in graphs.items() if validate(graph)] == []
    golden = json.loads(PINS_PATH.read_text())
    actual = compute_pins(graphs)
    assert sorted(actual) == sorted(golden)
    mismatches = [name for name in golden if actual[name] != golden[name]]
    assert not mismatches, f"{len(mismatches)} critical paths changed, first: {mismatches[:5]}"


if __name__ == "__main__":
    rows = [f" {json.dumps(name)}: {json.dumps(row)}" for name, row in compute_pins(pinned_graphs()).items()]
    PINS_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
