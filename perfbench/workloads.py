"""Benchmark workloads: seeded task graphs, policy configs and CLI steps.

Every workload is a pure function of (seed, scale): the same pair always
yields the same graphs, configs and command lines.  ``scale`` is "full"
for the measured benchmark and "tiny" for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

from schedsim import policies as pol
from schedsim.engine import SimConfig
from schedsim.generators import (
    EnclaveWorkloadParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_starvation_pattern,
)
from schedsim.prng import SplitMix64
from schedsim.task_graph import (
    Compute,
    DeferMode,
    Spawn,
    TaskGraph,
    TaskgroupEnd,
    TaskSpec,
    TaskwaitChildren,
    WaitMode,
)

STARVED = "starvation_detected"
COMPLETED = "completed"


@dataclass(frozen=True)
class Run:
    """One simulate call: a named policy config on one of the graphs."""

    config: str
    graph: str
    sim: SimConfig
    expected_outcome: str = COMPLETED


@dataclass(frozen=True)
class Group:
    """Runs compared against each other; the first run is the baseline."""

    name: str
    graph: str
    runs: tuple


@dataclass(frozen=True)
class CliPlan:
    """The schedsim command pipeline of one workload.

    ``generate`` is the argument list after ``schedsim generate``, or
    None when the benchmark writes ``graph`` to a file itself.  The two
    simulate argument lists follow ``schedsim simulate <graph>``.
    """

    graph: str
    generate: tuple | None
    baseline: tuple
    variant: tuple
    baseline_key: str
    variant_key: str
    expected_exit: tuple  # exit codes of (baseline, variant) simulate


@dataclass(frozen=True)
class Workload:
    graphs: dict
    groups: tuple
    cli: CliPlan
    chain_depths: tuple = ()  # deep-chain only: (n, 2n)


def _cfg(threads, policy):
    return SimConfig(thread_count=threads, policy=policy)


# --- enclave-throttle -------------------------------------------------------

_ENCLAVE = {
    "full": {"heavy": 800, "light": 100, "heavy_cells": 1400, "light_cells": 600},
    "tiny": {"heavy": 40, "light": 4, "heavy_cells": 60, "light_cells": 20},
}
_ENCLAVE_BOUND = {"full": 256, "tiny": 16}
_ENCLAVE_COST = (1, 8)


def _enclave_params(seed, scale, defer, wait):
    size = _ENCLAVE[scale]
    return EnclaveWorkloadParams(
        K=8,
        timesteps=2,
        enclaves_per_traversal=(size["heavy"],) + (size["light"],) * 7,
        traversal_cell_cost=1,
        enclave_cost_range=_ENCLAVE_COST,
        cells_per_traversal=(size["heavy_cells"],) + (size["light_cells"],) * 7,
        seed=seed,
        defer_mode=defer,
        wait_mode=wait,
    )


def enclave_throttle(seed: int, scale: str) -> Workload:
    runtime = gen_enclave_pattern(
        _enclave_params(seed, scale, DeferMode.RUNTIME_CHOICE, WaitMode.THROUGHPUT)
    )
    deferred = gen_enclave_pattern(
        _enclave_params(seed, scale, DeferMode.MUST_DEFER, WaitMode.LATENCY)
    )
    bound = _ENCLAVE_BOUND[scale]
    group = Group(
        "enclave",
        "runtime",
        (
            Run("reference", "runtime", _cfg(8, pol.reference(queue_bound=bound))),
            Run("reference_unbounded", "runtime", _cfg(8, pol.reference(queue_bound=None))),
            Run("fcfs", "runtime", _cfg(8, pol.fcfs())),
            Run("extended", "must_defer", _cfg(8, pol.extended(queue_bound=bound))),
        ),
    )
    size = _ENCLAVE[scale]
    generate = (
        "enclave", "--k", "8", "--timesteps", "2",
        "--cells-per-traversal", str(size["heavy_cells"]), *[str(size["light_cells"])] * 7,
        "--enclaves-per-traversal", str(size["heavy"]), *[str(size["light"])] * 7,
        "--cell-cost", "1",
        "--enclave-cost-min", str(_ENCLAVE_COST[0]),
        "--enclave-cost-max", str(_ENCLAVE_COST[1]),
        "--seed", str(seed),
    )
    cli = CliPlan(
        graph="runtime",
        generate=generate,
        baseline=("--policy", "reference", "--queue-bound", str(bound), "--threads", "8"),
        variant=("--policy", "reference", "--no-throttle", "--threads", "8"),
        baseline_key="enclave/reference",
        variant_key="enclave/reference_unbounded",
        expected_exit=(0, 0),
    )
    return Workload({"runtime": runtime, "must_defer": deferred}, (group,), cli)


# --- poll-storm -------------------------------------------------------------

_STORM = {"full": (992, 248), "tiny": (24, 6)}


def poll_storm(seed: int, scale: str) -> Workload:
    rng = SplitMix64(seed)
    consumers, enclaves = _STORM[scale]
    # The seed moves the sizes a little, not the amount of work per task.
    consumers += rng.randint(0, 16)
    enclaves += rng.randint(0, 4)
    params = StarvationParams(
        T=8, C=consumers, E=enclaves, poll_cost=1, enclave_cost=5, seed=seed
    )
    graph = gen_starvation_pattern(params)
    group = Group(
        "storm",
        "storm",
        (
            Run("reference", "storm", _cfg(8, pol.reference()), expected_outcome=STARVED),
            Run("fcfs", "storm", _cfg(8, pol.fcfs())),
            Run("extended", "storm", _cfg(8, pol.extended())),
        ),
    )
    cli = CliPlan(
        graph="storm",
        generate=(
            "starvation", "--t", "8", "--c", str(consumers), "--e", str(enclaves),
            "--poll-cost", "1", "--enclave-cost", "5", "--seed", str(seed),
        ),
        baseline=("--policy", "reference", "--threads", "8"),
        variant=("--policy", "extended", "--threads", "8"),
        baseline_key="storm/reference",
        variant_key="storm/extended",
        expected_exit=(3, 0),  # reference starves, extended completes
    )
    return Workload({"storm": graph}, (group,), cli)


# --- deep-chain -------------------------------------------------------------

_CHAIN_DEPTH = {"full": 1024, "tiny": 32}
_CHAIN_WAITS = (("taskwait", TaskwaitChildren), ("taskgroup", TaskgroupEnd))


def spawn_chain(depth: int, wait_action, rng: SplitMix64) -> TaskGraph:
    """Task i computes, spawns task i+1, computes again and waits on it."""
    tasks = []
    for i in range(depth):
        actions = [Compute(rng.randint(1, 9))]
        if i + 1 < depth:
            actions += [Spawn(child=i + 1), Compute(rng.randint(1, 9)), wait_action()]
        tasks.append(TaskSpec(id=i, actions=tuple(actions), label="link"))
    return TaskGraph(tasks=tuple(tasks), roots=(0,))


def deep_chain(seed: int, scale: str) -> Workload:
    rng = SplitMix64(seed)
    n = _CHAIN_DEPTH[scale]
    graphs = {}
    groups = []
    for depth in (n, 2 * n):
        for wait_name, wait_action in _CHAIN_WAITS:
            key = f"d{depth}-{wait_name}"
            graphs[key] = spawn_chain(depth, wait_action, rng)
            groups.append(
                Group(
                    key,
                    key,
                    (
                        Run("reference", key, _cfg(2, pol.reference())),
                        Run("extended", key, _cfg(2, pol.extended())),
                    ),
                )
            )
    cli_graph = f"d{2 * n}-taskwait"
    cli = CliPlan(
        graph=cli_graph,
        generate=None,
        baseline=("--policy", "reference", "--threads", "2"),
        variant=("--policy", "extended", "--threads", "2"),
        baseline_key=f"{cli_graph}/reference",
        variant_key=f"{cli_graph}/extended",
        expected_exit=(0, 0),
    )
    return Workload(graphs, tuple(groups), cli, chain_depths=(n, 2 * n))


BUILDERS = {
    "enclave-throttle": enclave_throttle,
    "poll-storm": poll_storm,
    "deep-chain": deep_chain,
}
