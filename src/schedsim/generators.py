"""Synthetic workload generators.

Four graph shapes, each reproducing one scheduling pathology on the
reference policy:

* enclave pattern - traversal tasks spawn bursts of independent enclave
  tasks; a heavy producer overflows its queue and gets throttled.
* starvation pattern - consumer tasks busy-poll pending enclave
  outcomes and churn through yields while the enclaves never run.
* nested-loop pattern - a critical task carries an embedded loop whose
  chunks serialize unless they are scattered with priorities.
* two-timestep pattern - two groups of traversals separated by a wait;
  threads that grab leftover enclave work at the wait delay the second
  group's start.

Every generator is a pure function of its parameters: the same seed
always yields a byte-identical graph.  Each builds every immutable action
once per distinct value (``task_graph._compute`` shares the Computes) and
every task positionally, since a graph holds thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prng import SplitMix64
from .task_graph import (
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskwaitChildren,
    WaitMode,
    YieldMode,
    _compute,
)

TRAVERSAL_PRIORITY = 1  # traversals define the critical path


class InvalidParamsError(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidParamsError(message)


# --- enclave pattern -------------------------------------------------------


@dataclass(frozen=True)
class EnclaveWorkloadParams:
    """Traversal/enclave producer-consumer workload.

    ``K`` traversal tasks per time step sweep their subdomains
    (``cells_per_traversal[k]`` compute segments of
    ``traversal_cell_cost`` ticks) and spawn their enclave children
    along the way (``enclaves_per_traversal[k]`` each, costs drawn
    uniformly from ``enclave_cost_range``).  Imbalance between the lists
    is intended.  From the second time step on, every traversal first
    polls the previous step's enclave outcomes of its predecessor
    traversal.  Each traversal ends in a wait for its own children; with
    more than one time step a driver task releases step t+1 only after
    step t's traversals completed.
    """

    K: int
    timesteps: int
    enclaves_per_traversal: tuple
    traversal_cell_cost: int
    enclave_cost_range: tuple
    cells_per_traversal: tuple
    seed: int
    defer_mode: DeferMode = DeferMode.RUNTIME_CHOICE
    yield_mode: YieldMode = YieldMode.DEFAULT
    wait_mode: WaitMode = WaitMode.THROUGHPUT

    def validate(self):
        _require(self.K >= 1, "K must be positive")
        _require(self.timesteps >= 1, "timesteps must be positive")
        _require(
            len(self.enclaves_per_traversal) == self.K,
            "enclaves_per_traversal must have K entries",
        )
        _require(
            len(self.cells_per_traversal) == self.K,
            "cells_per_traversal must have K entries",
        )
        _require(all(e >= 0 for e in self.enclaves_per_traversal), "enclave counts must be >= 0")
        _require(all(c >= 1 for c in self.cells_per_traversal), "cell counts must be positive")
        _require(self.traversal_cell_cost >= 1, "traversal_cell_cost must be positive")
        lo, hi = self.enclave_cost_range
        _require(1 <= lo <= hi, "enclave_cost_range must satisfy 1 <= min <= max")


def _spawns_after_cell(cells: int, enclaves: int) -> list:
    """Spread enclave spawns evenly over the earliest cells.

    Only some cells produce enclaves; packing them early keeps the
    producer's spawn burst ahead of its remaining sweep work.
    """
    counts = [0] * cells
    if enclaves == 0:
        return counts
    spread = min(cells, enclaves)
    base, extra = divmod(enclaves, spread)
    for i in range(spread):
        counts[i] = base + (1 if i < extra else 0)
    return counts


def gen_enclave_pattern(params: EnclaveWorkloadParams) -> TaskGraph:
    params.validate()
    rng = SplitMix64(params.seed)
    lo, hi = params.enclave_cost_range

    cell = _compute(params.traversal_cell_cost)
    wait = TaskwaitChildren(params.wait_mode)
    defer, yield_mode = params.defer_mode, params.yield_mode
    tasks = []
    roots = []

    driver_id = None
    driver_actions = []
    if params.timesteps > 1:
        driver_id = len(tasks)
        tasks.append(None)  # filled in once its spawns are known
        roots.append(driver_id)

    enclaves_by_step = []  # per step, per traversal: list of enclave ids
    for step in range(params.timesteps):
        step_traversals = []
        step_enclaves = []
        for k in range(params.K):
            actions = []
            if step > 0:
                # Consume the previous step's outcomes of the predecessor
                # traversal (deterministic cross-traversal dependency).
                for target in enclaves_by_step[step - 1][(k - 1) % params.K]:
                    actions.append(PollOutcome(target, yield_mode, 0))
            cell_counts = _spawns_after_cell(
                params.cells_per_traversal[k], params.enclaves_per_traversal[k]
            )
            enclave_ids = []
            for count in cell_counts:
                actions.append(cell)
                for _ in range(count):
                    enclave_id = len(tasks)
                    body = (_compute(rng.randint(lo, hi)),)
                    tasks.append(TaskSpec(enclave_id, body, 0, True, "enclave"))
                    enclave_ids.append(enclave_id)
                    actions.append(Spawn(enclave_id, defer))
            actions.append(wait)
            traversal_id = len(tasks)
            tasks.append(TaskSpec(traversal_id, actions, TRAVERSAL_PRIORITY, False, "traversal"))
            step_traversals.append(traversal_id)
            step_enclaves.append(enclave_ids)
        enclaves_by_step.append(step_enclaves)

        if driver_id is None:
            roots.extend(step_traversals)
        else:
            for traversal in step_traversals:
                driver_actions.append(Spawn(traversal, DeferMode.RUNTIME_CHOICE))
            driver_actions.append(wait)

    if driver_id is not None:
        tasks[driver_id] = TaskSpec(driver_id, driver_actions, 0, True, "driver")

    return TaskGraph(tasks=tuple(tasks), roots=tuple(roots))


# --- starvation pattern ------------------------------------------------------


@dataclass(frozen=True)
class StarvationParams:
    """C consumers busy-polling E pending enclave outcomes on T threads.

    Requires C > T + 1, the regime where untied consumers can occupy
    every thread and keep yielding to each other.  ``T`` documents the
    intended thread count; the graph itself is thread-agnostic.
    """

    T: int
    C: int
    E: int
    poll_cost: int
    enclave_cost: int
    seed: int  # not read: the graph has no random costs

    def validate(self):
        _require(self.T >= 1, "T must be positive")
        _require(self.C > self.T + 1, "starvation requires C > T + 1")
        _require(self.E >= 1, "E must be positive")
        _require(self.poll_cost >= 0, "poll_cost must be >= 0")
        _require(self.enclave_cost >= 1, "enclave_cost must be positive")


def gen_starvation_pattern(params: StarvationParams) -> TaskGraph:
    params.validate()
    C, E = params.C, params.E
    polls = [(PollOutcome(C + e, YieldMode.DEFAULT, params.poll_cost),) for e in range(E)]
    enclave = (_compute(params.enclave_cost),)
    # Consumers first: they occupy all threads before any enclave runs.
    tasks = [TaskSpec(c, polls[c % E], 0, False, "consumer") for c in range(C)]
    tasks += [TaskSpec(C + e, enclave, 0, True, "enclave") for e in range(E)]
    return TaskGraph(tuple(tasks), tuple(range(C + E)))


# --- nested-loop pattern -----------------------------------------------------


@dataclass(frozen=True)
class NestedLoopParams:
    """A critical traversal with an embedded parallelizable loop.

    The designated critical traversal runs a serial prefix, spawns
    ``loop_chunks`` chunk tasks, waits for them and runs a serial
    suffix.  Peer traversals carry blocking work, spawned as child tasks
    so their threads reach scheduling points while staying busy; their
    sizing keeps the peers' own queues full until the critical task's
    chunks would otherwise all have started locally.
    """

    K: int
    loop_chunks: int
    chunk_cost: int
    loop_on_critical_task_only: bool
    serial_prefix_cost: int
    serial_suffix_cost: int
    chunk_priority: int

    def validate(self):
        _require(self.K >= 1, "K must be positive")
        _require(self.loop_chunks >= 1, "loop_chunks must be >= 1")
        _require(self.chunk_cost >= 1, "chunk_cost must be positive")
        _require(self.serial_prefix_cost >= 1, "serial_prefix_cost must be positive")
        _require(self.serial_suffix_cost >= 1, "serial_suffix_cost must be positive")


def gen_nested_loop_pattern(params: NestedLoopParams) -> TaskGraph:
    params.validate()
    tasks = []
    roots = []

    blocker_cost = params.serial_prefix_cost
    blocking_window = params.serial_prefix_cost + (params.loop_chunks - 1) * params.chunk_cost
    blocker_count = -(-blocking_window // blocker_cost)
    prefix, suffix = _compute(params.serial_prefix_cost), _compute(params.serial_suffix_cost)
    chunk, blocker = (_compute(params.chunk_cost),), (_compute(blocker_cost),)
    wait = TaskwaitChildren(WaitMode.THROUGHPUT)

    def spawn_all(count, child_actions, priority, label):
        spawns = []
        for _ in range(count):
            spawns.append(Spawn(len(tasks), DeferMode.RUNTIME_CHOICE))
            tasks.append(TaskSpec(len(tasks), child_actions, priority, True, label))
        return spawns

    for k in range(params.K):
        if k == 0 or not params.loop_on_critical_task_only:  # a critical traversal
            spawns = spawn_all(params.loop_chunks, chunk, params.chunk_priority, "loop-chunk")
            actions = [prefix, *spawns, wait, suffix]
        else:
            actions = [*spawn_all(blocker_count, blocker, 0, "peer-work"), wait]
        roots.append(len(tasks))
        tasks.append(TaskSpec(len(tasks), actions, 0, False, "traversal"))

    return TaskGraph(tuple(tasks), tuple(roots))


# --- two-timestep pattern ------------------------------------------------------


def gen_two_timestep_pattern(
    K: int,
    traversal_cost: int,
    straggler_enclave_cost: int,
    wait_mode: WaitMode,
) -> TaskGraph:
    """Two groups of K traversals separated by a child wait.

    A driver spawns group 1, waits for the traversals (their enclave
    children are excluded from the synchronization set), then spawns
    group 2 and waits again.  Every group-1 traversal leaves behind one
    enclave costing more than a traversal, so threads that pick leftover
    enclaves at the wait are still busy when the wait completes.
    """
    _require(K >= 2, "two-timestep pattern requires K >= 2")
    _require(traversal_cost >= 1, "traversal_cost must be positive")
    _require(
        straggler_enclave_cost > traversal_cost,
        "straggler enclaves must outlast a traversal",
    )

    traversal, straggler = _compute(traversal_cost), (_compute(straggler_enclave_cost),)
    wait = TaskwaitChildren(wait_mode)
    runtime = DeferMode.RUNTIME_CHOICE
    tasks = [None]  # the driver, filled in once its spawns are known

    driver_actions = []
    for _ in range(K):
        enclave_id = len(tasks)
        tasks.append(TaskSpec(enclave_id, straggler, 0, True, "enclave"))
        body = (traversal, Spawn(enclave_id, runtime))
        tasks.append(TaskSpec(enclave_id + 1, body, TRAVERSAL_PRIORITY, False, "traversal-g1"))
        driver_actions.append(Spawn(enclave_id + 1, runtime))
    driver_actions.append(wait)
    for _ in range(K):
        driver_actions.append(Spawn(len(tasks), runtime))
        tasks.append(TaskSpec(len(tasks), (traversal,), TRAVERSAL_PRIORITY, False, "traversal-g2"))
    driver_actions.append(wait)

    tasks[0] = TaskSpec(0, driver_actions, 0, True, "driver")
    return TaskGraph(tuple(tasks), (0,))
