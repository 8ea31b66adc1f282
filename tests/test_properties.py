"""Property-based invariants over generated workloads and all policies."""

from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from schedsim import policies as pol
from schedsim.analysis import analyze, validate_trace
from schedsim.engine import EventKind, Outcome, SimConfig, simulate
from schedsim.prng import SplitMix64
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
    CyclicDependencyError,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskgroupEnd,
    TaskwaitChildren,
    critical_path,
    graph_to_json,
    total_work,
)

from graph_draws import DEFER_MODES, METAMORPHIC_POLICIES, WAIT_MODES, YIELD_MODES, sample_graph, tied_forest
from graph_model import reference_critical_path


@st.composite
def enclave_params(draw):
    k = draw(st.integers(1, 3))
    return EnclaveWorkloadParams(
        K=k,
        timesteps=draw(st.integers(1, 2)),
        enclaves_per_traversal=tuple(
            draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
        ),
        traversal_cell_cost=draw(st.integers(1, 5)),
        enclave_cost_range=(lambda lo, d: (lo, lo + d))(
            draw(st.integers(1, 3)), draw(st.integers(0, 4))
        ),
        cells_per_traversal=tuple(
            draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        ),
        seed=draw(st.integers(0, 2**32)),
        defer_mode=draw(st.sampled_from(DEFER_MODES)),
        yield_mode=draw(st.sampled_from(YIELD_MODES)),
        wait_mode=draw(st.sampled_from(WAIT_MODES)),
    )


@st.composite
def starvation_params(draw):
    t = draw(st.integers(1, 3))
    return StarvationParams(
        T=t,
        C=t + 2 + draw(st.integers(0, 3)),
        E=draw(st.integers(1, 4)),
        poll_cost=draw(st.integers(0, 3)),
        enclave_cost=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def nested_params(draw):
    return NestedLoopParams(
        K=draw(st.integers(1, 4)),
        loop_chunks=draw(st.integers(1, 5)),
        chunk_cost=draw(st.integers(1, 6)),
        loop_on_critical_task_only=draw(st.booleans()),
        serial_prefix_cost=draw(st.integers(1, 4)),
        serial_suffix_cost=draw(st.integers(1, 4)),
        chunk_priority=draw(st.integers(0, 3)),
    )


@st.composite
def any_graph(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return gen_enclave_pattern(draw(enclave_params()))
    if kind == 1:
        return gen_starvation_pattern(draw(starvation_params()))
    if kind == 2:
        return gen_nested_loop_pattern(draw(nested_params()))
    return gen_two_timestep_pattern(
        K=draw(st.integers(2, 4)),
        traversal_cost=draw(st.integers(1, 5)),
        straggler_enclave_cost=draw(st.integers(6, 12)),
        wait_mode=draw(st.sampled_from(WAIT_MODES)),
    )


POLICIES = [pol.reference(), pol.fcfs(), pol.extended()]


def nx_critical_path_length(graph):
    """Independent longest-path oracle: split every action node into an
    in->out edge carrying its compute weight."""
    dag = nx.DiGraph()

    def node(task, idx, side):
        return (task, idx, side)

    for spec in graph.tasks:
        for idx in range(len(spec.actions) + 1):
            weight = 0
            if idx < len(spec.actions) and isinstance(spec.actions[idx], Compute):
                weight = spec.actions[idx].duration
            dag.add_edge(node(spec.id, idx, "in"), node(spec.id, idx, "out"), weight=weight)

    children_of = {}
    for spec in graph.tasks:
        for action in spec.actions:
            if isinstance(action, Spawn):
                children_of.setdefault(spec.id, []).append(action.child)

    def subtree(roots):
        out, stack = set(), list(roots)
        while stack:
            cur = stack.pop()
            if cur in out:
                continue
            out.add(cur)
            stack.extend(children_of.get(cur, []))
        return out

    for spec in graph.tasks:
        spawned = []
        mark = 0
        for idx, action in enumerate(spec.actions):
            dag.add_edge(node(spec.id, idx, "out"), node(spec.id, idx + 1, "in"), weight=0)
            if isinstance(action, Spawn):
                dag.add_edge(node(spec.id, idx, "out"), node(action.child, 0, "in"), weight=0)
                spawned.append(action.child)
                if action.defer is DeferMode.UNDEFERRED:
                    child_end = len(graph.task(action.child).actions)
                    dag.add_edge(
                        node(action.child, child_end, "out"),
                        node(spec.id, idx + 1, "in"),
                        weight=0,
                    )
            elif isinstance(action, TaskwaitChildren):
                for child in spawned:
                    end = len(graph.task(child).actions)
                    dag.add_edge(node(child, end, "out"), node(spec.id, idx, "in"), weight=0)
            elif isinstance(action, TaskgroupEnd):
                for dep in subtree(spawned[mark:]):
                    end = len(graph.task(dep).actions)
                    dag.add_edge(node(dep, end, "out"), node(spec.id, idx, "in"), weight=0)
                mark = len(spawned)
            elif isinstance(action, PollOutcome):
                end = len(graph.task(action.target).actions)
                dag.add_edge(node(action.target, end, "out"), node(spec.id, idx, "in"), weight=0)
    if not dag:
        return 0
    return nx.dag_longest_path_length(dag, weight="weight")


@settings(max_examples=120, deadline=None)
@given(any_graph())
def test_generated_graphs_validate(graph):
    from schedsim.task_graph import validate

    assert validate(graph) == []


@settings(max_examples=60, deadline=None)
@given(enclave_params())
def test_generator_is_pure(params):
    assert graph_to_json(gen_enclave_pattern(params)) == graph_to_json(
        gen_enclave_pattern(params)
    )


@settings(max_examples=120, deadline=None)
@given(any_graph())
def test_critical_path_matches_networkx_oracle(graph):
    assert critical_path(graph)[0] == nx_critical_path_length(graph)


@settings(max_examples=100, deadline=None)
@given(any_graph())
def test_critical_path_bounded_by_total_work(graph):
    assert critical_path(graph)[0] <= total_work(graph)


@settings(max_examples=80, deadline=None)
@given(any_graph(), st.integers(1, 4), st.sampled_from(POLICIES))
def test_simulation_invariants(graph, threads, policy):
    cfg = SimConfig(thread_count=threads, policy=policy)
    trace = simulate(graph, cfg)
    assert simulate(graph, cfg).to_json() == trace.to_json()
    assert validate_trace(graph, trace) == []
    if trace.outcome is Outcome.COMPLETED:
        work = total_work(graph)
        assert trace.makespan >= critical_path(graph)[0]
        assert trace.makespan >= -(-work // threads)
        report = analyze(graph, trace)
        compute_ticks = report.occupancy * trace.makespan * threads
        assert compute_ticks == work


@settings(max_examples=60, deadline=None)
@given(any_graph())
def test_fcfs_with_ample_threads_hits_critical_path(graph):
    threads = max(len(graph.tasks), 1)
    trace = simulate(graph, SimConfig(thread_count=threads, policy=pol.fcfs()))
    assert trace.outcome is Outcome.COMPLETED
    assert trace.makespan == critical_path(graph)[0]


@settings(max_examples=50, deadline=None)
@given(any_graph(), st.integers(1, 4))
def test_throttling_monotone_in_queue_bound(graph, threads):
    counts = []
    for bound in (2, 16, 256, None):
        trace = simulate(
            graph, SimConfig(thread_count=threads, policy=pol.reference(queue_bound=bound))
        )
        counts.append(sum(1 for e in trace.events if e.kind is EventKind.THROTTLED))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0  # unbounded queues never throttle


@settings(max_examples=50, deadline=None)
@given(starvation_params())
def test_fair_yield_completes_every_starvation_workload(params):
    graph = gen_starvation_pattern(params)
    trace = simulate(
        graph, SimConfig(thread_count=params.T, policy=pol.extended())
    )
    assert trace.outcome is Outcome.COMPLETED
    enclave_runs = [
        e for e in trace.events
        if e.kind is EventKind.COMPLETED and graph.task(e.task).label == "enclave"
    ]
    assert len(enclave_runs) == params.E


@settings(max_examples=40, deadline=None)
@given(any_graph(), st.integers(1, 3))
def test_occupancy_within_unit_interval(graph, threads):
    trace = simulate(graph, SimConfig(thread_count=threads, policy=pol.extended()))
    report = analyze(graph, trace)
    assert Fraction(0) <= report.occupancy <= Fraction(1)
    assert all(Fraction(0) <= f <= Fraction(1) for f in report.per_thread_busy)


def map_actions(graph, actions):
    """The graph with each action replaced by the actions `actions(action)` returns."""
    tasks = tuple(replace(spec, actions=tuple(b for a in spec.actions for b in actions(a))) for spec in graph.tasks)
    return TaskGraph(tasks=tasks, roots=graph.roots)


def scale_time(graph, k):
    """The graph with every compute duration and poll cost multiplied by k."""

    def scaled(action):
        if isinstance(action, Compute):
            return (replace(action, duration=action.duration * k),)
        if isinstance(action, PollOutcome):
            return (replace(action, poll_cost=action.poll_cost * k),)
        return (action,)

    return map_actions(graph, scaled)


SCALING_POLICIES = [
    pol.reference(),
    pol.reference(queue_bound=2),
    pol.fcfs(),
    pol.extended(),
    pol.extended(priority_aware=False),
]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
    st.sampled_from(SCALING_POLICIES),
    st.sampled_from([2, 3]),
)
def test_time_scaling_invariance(seed, threads, policy, k):
    graph = sample_graph(SplitMix64(seed))
    cfg = SimConfig(thread_count=threads, policy=policy)
    base = simulate(graph, cfg)
    scaled = simulate(scale_time(graph, k), cfg)
    assert scaled.outcome is base.outcome
    assert scaled.makespan == k * base.makespan
    assert [(s.thread, s.task, s.kind, s.start, s.end) for s in scaled.segments] == [
        (s.thread, s.task, s.kind, k * s.start, k * s.end) for s in base.segments
    ]
    assert [(e.kind, e.task, e.thread, e.time) for e in scaled.events] == [
        (e.kind, e.task, e.thread, k * e.time) for e in base.events
    ]


@st.composite
def poll_graph(draw):
    """A small forest whose tasks poll any task (themselves and each other
    included) at staggered costs, wait, and spawn children in any defer
    mode, in any order."""
    n = draw(st.integers(3, 5))
    parent = {task: draw(st.integers(-1, task - 1)) for task in range(1, n)}
    poll = st.builds(
        PollOutcome, st.integers(0, n - 1), st.sampled_from(YIELD_MODES), st.integers(0, 3)
    )
    other = st.one_of(
        st.builds(Compute, st.integers(1, 5)),
        st.builds(TaskwaitChildren, st.sampled_from(WAIT_MODES)),
        st.builds(TaskgroupEnd, st.sampled_from(WAIT_MODES)),
    )
    step = st.one_of(poll, other)  # half the steps poll
    tasks = []
    for task in range(n):
        spawns = [
            Spawn(child, draw(st.sampled_from(DEFER_MODES)))
            for child in range(n)
            if parent.get(child) == task
        ]
        actions = draw(st.permutations(spawns + draw(st.lists(step, min_size=1, max_size=3))))
        tasks.append(
            TaskSpec(
                id=task,
                actions=tuple(actions),
                priority=draw(st.integers(-1, 1)),
                tied=draw(st.booleans()),
            )
        )
    roots = tuple(task for task in range(n) if parent.get(task, -1) < 0)
    return TaskGraph(tasks=tuple(tasks), roots=roots)


def drawn_graph(seed, forest):
    """A ``sample_graph`` graph, or a forest of latency waits and tied tasks."""
    rng = SplitMix64(seed)
    if forest:
        return tied_forest(rng, rng.randint(1, 6), latency=True)
    return sample_graph(rng)


def trace_rows(trace, task=lambda t: t):
    """The trace as comparable rows, with task ids mapped through `task`."""
    return (
        trace.thread_count,
        trace.makespan,
        trace.outcome,
        [(s.thread, task(s.task), s.start, s.end, s.kind) for s in trace.segments],
        [(e.time, e.kind, task(e.task), e.thread) for e in trace.events],
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.integers(1, 4),
    st.sampled_from(METAMORPHIC_POLICIES),
    st.integers(950, 1050),
)
def test_priority_translation_invariance(seed, forest, threads, policy, shift):
    graph = drawn_graph(seed, forest)
    shifted = TaskGraph(
        tasks=tuple(replace(spec, priority=spec.priority + shift) for spec in graph.tasks),
        roots=graph.roots,
    )
    cfg = SimConfig(thread_count=threads, policy=policy)
    assert simulate(shifted, cfg).to_json() == simulate(graph, cfg).to_json()


def permute_ids(graph, perm):
    """The graph with task `t` renamed `perm[t]`; roots keep their order."""

    def renamed(action):
        if isinstance(action, Spawn):
            return replace(action, child=perm[action.child])
        if isinstance(action, PollOutcome):
            return replace(action, target=perm[action.target])
        return action

    tasks = [None] * len(graph.tasks)
    for spec in graph.tasks:
        tasks[perm[spec.id]] = replace(
            spec, id=perm[spec.id], actions=tuple(map(renamed, spec.actions))
        )
    return TaskGraph(tasks=tuple(tasks), roots=tuple(perm[r] for r in graph.roots))


def any_drawn_graph():
    """A ``sample_graph``, a latency forest or a ``poll_graph``."""
    return st.one_of(st.builds(drawn_graph, st.integers(0, 2**64 - 1), st.booleans()), poll_graph())


@settings(max_examples=200, deadline=None)
@given(any_drawn_graph(), st.integers(1, 9), st.sampled_from(METAMORPHIC_POLICIES), st.data())
def test_task_id_permutation_invariance(graph, threads, policy, data):
    # no tie is broken by task id
    perm = data.draw(st.permutations(range(len(graph.tasks))))
    cfg = SimConfig(thread_count=threads, policy=policy, max_virtual_time=10_000)
    renamed = simulate(permute_ids(graph, perm), cfg)
    assert trace_rows(renamed) == trace_rows(simulate(graph, cfg), perm.__getitem__)


def merged_rows(trace):
    """``trace_rows`` with each segment that starts where an earlier one of
    its thread, task and kind ends merged into that one."""
    segments = []
    for s in trace.segments:
        key = (s.thread, s.task, s.kind, s.start)
        prev = next((p for p in segments if (p.thread, p.task, p.kind, p.end) == key), None)
        if prev is not None:
            segments.remove(prev)
            s = s._replace(start=prev.start)
        segments.append(s)
    return trace_rows(replace(trace, segments=tuple(segments)))


@settings(max_examples=200, deadline=None)
@given(
    any_drawn_graph(),
    st.integers(0, 2**64 - 1),
    st.integers(1, 9),
    st.sampled_from(METAMORPHIC_POLICIES),
)
def test_compute_splitting_invariance(graph, seed, threads, policy):
    # A compute has no scheduling point, so splitting one in two changes no
    # decision.  Polls are dropped: a sleeping poller wakes at any event.
    rng = SplitMix64(seed)

    def split(action):
        if type(action) is Compute and action.duration > 1:
            head = rng.randint(1, action.duration - 1)
            return Compute(head), Compute(action.duration - head)
        return (action,)

    graph = map_actions(graph, lambda a: () if type(a) is PollOutcome else (a,))
    cfg = SimConfig(thread_count=threads, policy=policy)
    split_trace = simulate(map_actions(graph, split), cfg)
    assert merged_rows(split_trace) == merged_rows(simulate(graph, cfg))


@st.composite
def spawn_tree(draw):
    """A forest of up to 10 tasks, numbered in any order, whose tasks spawn
    their children in any defer mode (undeferred half the time) between
    1- and 2-tick computes, child waits, group ends and polls on tasks of
    earlier trees (which cannot close a cycle), so that equal-length chains
    and group ends over nested subtrees are everywhere."""
    n = draw(st.integers(1, 10))
    parent = [draw(st.sampled_from([task - 1, task - 1, -1]) | st.integers(-1, task - 1)) for task in range(n)]
    tree = []  # the first task of each task's tree
    for task in range(n):
        tree.append(task if parent[task] < 0 else tree[parent[task]])
    perm = draw(st.permutations(range(n)))
    defer = st.sampled_from([DeferMode.UNDEFERRED, DeferMode.UNDEFERRED, DeferMode.RUNTIME_CHOICE, DeferMode.MUST_DEFER])
    tasks = [None] * n
    for task in range(n):
        earlier = [perm[t] for t in range(n) if tree[t] < tree[task]]
        step = st.sampled_from([Compute(1), Compute(2), TaskwaitChildren(), TaskgroupEnd()])
        if earlier:
            step = st.one_of(step, st.sampled_from(earlier).map(PollOutcome))
        actions = draw(st.lists(step, max_size=2))
        for child in (c for c in range(n) if parent[c] == task):
            actions += [Spawn(perm[child], draw(defer))] + draw(st.lists(step, max_size=2))
        tasks[perm[task]] = TaskSpec(perm[task], tuple(actions))
    return TaskGraph(tuple(tasks), tuple(perm[t] for t in range(n) if parent[t] < 0))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(drawn_graph, st.integers(0, 2**64 - 1), st.booleans()),
        poll_graph(),
        spawn_tree(),
    )
)
def test_critical_path_matches_the_reference_kernel(graph):
    # the exact path, tie-break included, which networkx does not check
    try:
        expected = reference_critical_path(graph)
    except CyclicDependencyError:
        with pytest.raises(CyclicDependencyError):
            critical_path(graph)
        return
    assert critical_path(graph) == expected


@settings(max_examples=300, deadline=None)
@given(poll_graph())
def test_poll_graphs_never_hit_the_time_limit(graph):
    # Every run completes or is found starved; the limit is far above the
    # work of any drawn graph (at most 75 ticks).
    for policy in METAMORPHIC_POLICIES:
        for threads in (1, 2, 3, 4):
            cfg = SimConfig(thread_count=threads, policy=policy, max_virtual_time=10_000)
            assert simulate(graph, cfg).outcome is not Outcome.TIME_LIMIT_EXCEEDED
