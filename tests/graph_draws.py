"""SplitMix64 graph drawers and policy configs shared by the tests and scripts.

Each drawer reads only a ``SplitMix64`` stream, so a seed reproduces its
graph exactly; the pinned corpora in ``tests/`` depend on every draw,
so a drawer's stream must not change.  They import nothing beyond the
standard library and ``schedsim``.
"""

from schedsim import policies as pol
from schedsim.generators import (
    EnclaveWorkloadParams,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
    gen_two_timestep_pattern,
)
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
    YieldMode,
)

DEFER_MODES = [DeferMode.RUNTIME_CHOICE, DeferMode.MUST_DEFER, DeferMode.UNDEFERRED]
YIELD_MODES = [YieldMode.DEFAULT, YieldMode.LATENCY, YieldMode.THROUGHPUT]
WAIT_MODES = [WaitMode.THROUGHPUT, WaitMode.LATENCY]

# The five golden configs, unbounded reference queues and extended queues
# without priorities: the metamorphic properties, the interpreter property
# and ``scripts/exhaust.py`` run under them.
METAMORPHIC_POLICIES = [
    pol.reference(),
    pol.reference(queue_bound=2),
    pol.fcfs(),
    pol.extended(),
    pol.extended(queue_bound=2),
    pol.reference(queue_bound=None),
    pol.extended(priority_aware=False),
]


def sample_graph(rng):
    shape = rng.randint(0, 3)
    if shape == 0:
        k = rng.randint(1, 3)
        lo = rng.randint(1, 3)
        return gen_enclave_pattern(
            EnclaveWorkloadParams(
                K=k,
                timesteps=rng.randint(1, 2),
                enclaves_per_traversal=tuple(rng.randint(0, 6) for _ in range(k)),
                traversal_cell_cost=rng.randint(1, 4),
                enclave_cost_range=(lo, lo + rng.randint(0, 4)),
                cells_per_traversal=tuple(rng.randint(1, 5) for _ in range(k)),
                seed=rng.next_u64(),
                defer_mode=(
                    DeferMode.RUNTIME_CHOICE,
                    DeferMode.MUST_DEFER,
                    DeferMode.UNDEFERRED,
                )[rng.randint(0, 2)],
                yield_mode=(
                    YieldMode.DEFAULT,
                    YieldMode.LATENCY,
                    YieldMode.THROUGHPUT,
                )[rng.randint(0, 2)],
                wait_mode=(WaitMode.THROUGHPUT, WaitMode.LATENCY)[rng.randint(0, 1)],
            )
        )
    if shape == 1:
        t = rng.randint(1, 3)
        return gen_starvation_pattern(
            StarvationParams(
                T=t,
                C=t + 2 + rng.randint(0, 3),
                E=rng.randint(1, 4),
                poll_cost=rng.randint(0, 3),
                enclave_cost=rng.randint(1, 6),
                seed=rng.next_u64(),
            )
        )
    if shape == 2:
        params = NestedLoopParams(
            K=rng.randint(1, 4),
            loop_chunks=rng.randint(1, 5),
            chunk_cost=rng.randint(1, 6),
            loop_on_critical_task_only=bool(rng.randint(0, 1)),
            serial_prefix_cost=rng.randint(1, 4),
            serial_suffix_cost=rng.randint(1, 4),
            chunk_priority=rng.randint(0, 3),
        )
        rng.next_u64()  # the draw that once seeded the params keeps the stream
        return gen_nested_loop_pattern(params)
    return gen_two_timestep_pattern(
        K=rng.randint(2, 4),
        traversal_cost=rng.randint(1, 5),
        straggler_enclave_cost=rng.randint(6, 12),
        wait_mode=(WaitMode.THROUGHPUT, WaitMode.LATENCY)[rng.randint(0, 1)],
    )


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


def poll_graph(rng):
    """A forest of 3 to 5 tasks whose tasks poll any task (themselves and
    each other included) at costs 0 to 3, wait, and spawn their children
    in any defer mode, in any order: the SplitMix64 form of the
    ``poll_graph`` strategy in ``test_properties``, drawn with the same
    odds (half the steps poll)."""
    n = rng.randint(3, 5)
    parent = {task: rng.randint(-1, task - 1) for task in range(1, n)}
    tasks = []
    for task in range(n):
        actions = [Spawn(child, DEFER_MODES[rng.randint(0, 2)]) for child in range(n) if parent.get(child) == task]
        for _ in range(rng.randint(1, 3)):
            step = rng.randint(0, 5)
            if step < 3:
                actions.append(PollOutcome(rng.randint(0, n - 1), YIELD_MODES[rng.randint(0, 2)], rng.randint(0, 3)))
            elif step == 3:
                actions.append(Compute(rng.randint(1, 5)))
            else:
                actions.append((TaskwaitChildren, TaskgroupEnd)[step - 4](WAIT_MODES[rng.randint(0, 1)]))
        for i in range(len(actions) - 1, 0, -1):  # Fisher-Yates
            j = rng.randint(0, i)
            actions[i], actions[j] = actions[j], actions[i]
        priority = rng.randint(-1, 1)
        tasks.append(TaskSpec(id=task, actions=tuple(actions), priority=priority, tied=bool(rng.randint(0, 1))))
    roots = tuple(task for task in range(n) if parent.get(task, -1) < 0)
    return TaskGraph(tasks=tuple(tasks), roots=roots)
