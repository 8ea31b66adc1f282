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
from schedsim.task_graph import (
    Compute,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskgroupEnd,
    TaskGraph,
    TaskSpec,
    TaskwaitChildren,
    WaitMode,
    critical_path,
    validate,
)

from test_acceptance import sample_graph
from test_golden_digests import GRAPHS, SEED

PINS_PATH = Path(__file__).with_name("critical_path_pins.json")
CHAIN_DEPTH = 1024
CHAIN_SEED = 1
FOREST_SEED = 7
FOREST_ROOTS = 300


def spawn_chain(depth, wait_action, rng, defer=DeferMode.RUNTIME_CHOICE):
    """Task i computes, spawns task i+1, computes again and, unless
    `wait_action` is None, waits on it (the deep-chain benchmark's shape)."""
    tasks = []
    for i in range(depth):
        actions = [Compute(rng.randint(1, 9))]
        if i + 1 < depth:
            actions += [Spawn(i + 1, defer), Compute(rng.randint(1, 9))]
            if wait_action is not None:
                actions.append(wait_action())
        tasks.append(TaskSpec(id=i, actions=tuple(actions), label="link"))
    return TaskGraph(tasks=tuple(tasks), roots=(0,))


def tied_forest(rng, roots, latency=False):
    """Many roots with small subtrees, durations of 1 or 2 ticks.

    Equal-length chains are everywhere, so the tie-break decides most
    steps.  Tasks mix runtime and undeferred spawns, child waits, group
    ends over nested subtrees, and polls on tasks of earlier roots (which
    cannot close a cycle).  With `latency`, each wait is a latency wait
    with probability 1/2.
    """
    actions_of = []

    def mode():
        # Drawn only with `latency`, so the pinned forests keep their stream.
        return WaitMode.LATENCY if latency and rng.randint(0, 1) else WaitMode.THROUGHPUT

    def build(depth, first_of_root):
        task_id = len(actions_of)
        actions_of.append(None)
        actions = [Compute(rng.randint(1, 2))]
        for _ in range(rng.randint(0, 3) if depth < 3 else 0):
            step = rng.randint(0, 9)
            if step == 0 and first_of_root > 0:
                actions.append(PollOutcome(rng.randint(0, first_of_root - 1)))
            elif step == 1:
                actions.append(Compute(rng.randint(1, 2)))
            defer = DeferMode.UNDEFERRED if rng.randint(0, 4) == 0 else DeferMode.RUNTIME_CHOICE
            actions.append(Spawn(build(depth + 1, first_of_root), defer))
            wait = rng.randint(0, 3)
            if wait == 0:
                actions.append(TaskwaitChildren(mode()))
            elif wait == 1:
                actions.append(TaskgroupEnd(mode()))
        if rng.randint(0, 1):
            actions.append(TaskgroupEnd(mode()))
        if rng.randint(0, 1):
            actions.append(Compute(rng.randint(1, 2)))
        actions_of[task_id] = tuple(actions)
        return task_id

    root_ids = [build(0, len(actions_of)) for _ in range(roots)]
    tasks = tuple(TaskSpec(id=i, actions=a) for i, a in enumerate(actions_of))
    return TaskGraph(tasks=tasks, roots=tuple(root_ids))


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
