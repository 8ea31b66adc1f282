"""Bounded-exhaustive check: the engine against the reference interpreter
on every graph of a small, fixed scope.

The scope is every graph of 2 tasks with 1 or 2 actions each, rooted at
task 0.  An action is one of ``Compute(1)``, ``Compute(2)``, either wait
kind in either mode, a spawn of each later task in each defer mode, and a
poll of the other task in the default or latency yield mode at cost 1.
Task i has priority i mod 2 and is tied when i is even.  Each graph that
``validate`` accepts runs under the configs of
``tests/graph_draws.METAMORPHIC_POLICIES`` on 1 to 3 threads, and the
``to_json`` bytes of ``simulate`` must equal those of
``tests/reference_engine.simulate``.  Each divergence is printed as the
graph's JSON with its config and thread count, and the script exits 1 on
any.  It also pins ``validate`` over the whole scope: the counts of
candidates, valid graphs and runs, and a sha256 of every candidate's
violation list, each against ``EXPECTED``; each that moved is printed,
and the script exits 1.  Standard library only; takes no
arguments.

    python scripts/exhaust.py
"""

from __future__ import annotations

import hashlib
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package and test helpers

import reference_engine
from graph_draws import DEFER_MODES, METAMORPHIC_POLICIES, WAIT_MODES
from schedsim.engine import SimConfig, simulate
from schedsim.task_graph import (
    Compute,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskgroupEnd,
    TaskSpec,
    TaskwaitChildren,
    YieldMode,
    graph_to_json,
    validate,
)

TASKS = 2
ACTION_COUNTS = (1, 2)
THREADS = (1, 2, 3)
MAX_VIRTUAL_TIME = 10_000
EXPECTED = {
    "candidates": 9_504,
    "valid graphs": 3_672,
    "runs": 77_112,
    # over repr(validate(graph)) of every candidate, in enumeration order
    "violations sha256": "35c95bead5552912d7f79e8dd97d87eba2dc34a2b8aa1af076cce164a4de177d",
}


def alphabet(task: int) -> list:
    """Every action task `task` may take."""
    actions = [Compute(1), Compute(2)]
    actions += [wait(mode) for wait in (TaskwaitChildren, TaskgroupEnd) for mode in WAIT_MODES]
    actions += [Spawn(child, defer) for child in range(task + 1, TASKS) for defer in DEFER_MODES]
    actions += [
        PollOutcome(other, mode, 1)
        for other in range(TASKS) if other != task
        for mode in (YieldMode.DEFAULT, YieldMode.LATENCY)
    ]
    return actions


def bodies(task: int) -> list:
    """Every action sequence of task `task`."""
    letters = alphabet(task)
    return [body for count in ACTION_COUNTS for body in product(letters, repeat=count)]


def main() -> int:
    candidates = valid = runs = divergent = 0
    violations = hashlib.sha256()
    for chosen in product(*map(bodies, range(TASKS))):
        candidates += 1
        tasks = tuple(TaskSpec(i, body, priority=i % 2, tied=i % 2 == 0) for i, body in enumerate(chosen))
        graph = TaskGraph(tasks, (0,))
        found = validate(graph)
        violations.update(repr(found).encode())
        if found:
            continue
        valid += 1
        for policy, threads in product(METAMORPHIC_POLICIES, THREADS):
            cfg = SimConfig(thread_count=threads, policy=policy, max_virtual_time=MAX_VIRTUAL_TIME)
            runs += 1
            if simulate(graph, cfg).to_json() != reference_engine.simulate(graph, cfg).to_json():
                divergent += 1
                print(f"divergent: {policy} on {threads} threads\n{graph_to_json(graph)}")
    print(f"{candidates} candidates, {valid} valid graphs, {runs} runs, {divergent} divergent")
    got = {"candidates": candidates, "valid graphs": valid, "runs": runs, "violations sha256": violations.hexdigest()}
    moved = [name for name, want in EXPECTED.items() if got[name] != want]
    for name in moved:
        print(f"moved: {name} {got[name]}, expected {EXPECTED[name]}")
    return 1 if divergent or moved else 0


if __name__ == "__main__":
    sys.exit(main())
