"""The bulk builders pause the cyclic garbage collector and give the
caller's collector state back, also when they raise; what they build
leaves no cycle behind for the collector to find."""

import gc

import pytest

from schedsim import policies as pol
from schedsim.analysis import analyze, validate_trace
from schedsim.engine import InvalidGraphError, ScheduleTrace, SimConfig, simulate
from schedsim.task_graph import (
    Compute,
    CyclicDependencyError,
    PollOutcome,
    TaskGraph,
    TaskSpec,
    critical_path,
    graph_from_json,
    graph_to_json,
)

import test_many_thread_digests as many

GRAPH = TaskGraph((TaskSpec(0, (Compute(3),)), TaskSpec(1, (Compute(2),))), (0, 1))
CONFIG = SimConfig(thread_count=2, policy=pol.reference())


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_builders_restore_the_collector_state(collector):
    trace = simulate(GRAPH, CONFIG)
    assert gc.isenabled() is collector
    assert ScheduleTrace.from_json(trace.to_json()) == trace
    assert gc.isenabled() is collector
    assert graph_from_json(graph_to_json(GRAPH)) == GRAPH
    assert gc.isenabled() is collector
    assert validate_trace(GRAPH, trace) == []
    assert gc.isenabled() is collector
    assert critical_path(TaskGraph(GRAPH.tasks, GRAPH.roots)) == (3, [0])  # a fresh graph: no cached path
    assert gc.isenabled() is collector


def test_a_raising_build_restores_the_collector_state(collector):
    bad = TaskGraph((TaskSpec(0, (Compute(0),)),), (0,))
    with pytest.raises(InvalidGraphError):
        simulate(bad, CONFIG)
    assert gc.isenabled() is collector
    with pytest.raises(TypeError):
        ScheduleTrace.from_dict(
            {"thread_count": 1.5, "makespan": 0, "outcome": "completed", "segments": [], "events": []}
        )
    assert gc.isenabled() is collector
    with pytest.raises(CyclicDependencyError):
        critical_path(TaskGraph((TaskSpec(0, (PollOutcome(1),)), TaskSpec(1, (PollOutcome(0),))), (0, 1)))
    assert gc.isenabled() is collector


def test_the_engine_runs_with_the_collector_paused(monkeypatch, collector):
    seen = []
    queues = pol.ReadyQueues  # built once per run, by the engine
    monkeypatch.setattr(pol, "ReadyQueues", lambda *args: seen.append(gc.isenabled()) or queues(*args))
    simulate(GRAPH, CONFIG)
    assert seen == [False]


def test_the_many_thread_corpus_leaves_no_cycles():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for graph in many.graphs().values():
            graph = graph_from_json(graph_to_json(graph))
            for policy in many.CONFIGS.values():
                for threads in many.THREADS:
                    trace = simulate(graph, SimConfig(thread_count=threads, policy=policy))
                    back = ScheduleTrace.from_json(trace.to_json())
                    validate_trace(graph, back)
                    analyze(graph, back)
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
