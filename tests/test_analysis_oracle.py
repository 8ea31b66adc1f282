"""The per-trace facts against the per-call model in ``analysis_model``.

``validate_trace`` and ``analyze`` read facts that are computed once per
trace and cached on it.  On every trace of the golden and many-thread
corpora, and on mutations of them that trip every violation kind and
every ``_untrusted`` kind, they must give exactly what the model gives,
which rescans the trace on each call: the same reports, the same
violations in the same order, and the same first defect when the trace
is rejected.
"""

from dataclasses import replace

import pytest

import analysis_model as model
from schedsim import analysis
from schedsim import policies as pol
from schedsim.engine import (
    MAX_THREADS,
    EventKind,
    Outcome,
    ScheduleTrace,
    Segment,
    SegmentKind,
    SimConfig,
    TraceEvent,
    simulate,
)
from schedsim.prng import SplitMix64
from schedsim.task_graph import Compute, DeferMode, Spawn, TaskGraph, TaskSpec

import test_golden_digests as golden
import test_many_thread_digests as many

VIOLATION_KINDS = {
    "OverlappingSegments",
    "DuplicateCompletion",
    "WorkNotConserved",
    "MissingCompletion",
    "MakespanBelowCriticalPath",
    "MakespanBelowWorkBound",
    "TiedTaskMigrated",
}
UNTRUSTED_KINDS = {
    "NoThreads",
    "TooManyThreads",
    "UnknownTask",
    "UnknownThread",
    "EmptySegment",
    "OutsideMakespan",
}


def golden_corpus():
    rng = SplitMix64(golden.SEED)
    graphs = [golden.sample_graph(rng) for _ in range(golden.GRAPHS)]
    for policy in golden.CONFIGS.values():
        for graph in graphs:
            for threads in golden.THREADS:
                yield graph, simulate(graph, SimConfig(thread_count=threads, policy=policy))


def many_thread_corpus():
    graphs = many.graphs()
    for policy in many.CONFIGS.values():
        for graph in graphs.values():
            for threads in many.THREADS:
                yield graph, simulate(graph, SimConfig(thread_count=threads, policy=policy))


def result(analyze, graph, trace):
    try:
        return analyze(graph, trace)
    except (analysis.TraceMismatchError, model.ModelMismatch) as exc:
        return ("rejected", str(exc))


def check(graph, trace) -> list:
    """Assert the facts agree with the model on `trace`; its violations."""
    violations = model.validate_trace(graph, trace)
    assert analysis.validate_trace(graph, trace) == violations
    assert result(analysis.analyze, graph, trace) == result(model.analyze, graph, trace)
    # A fresh copy reads its facts through analyze first.
    fresh = replace(trace)
    assert result(analysis.analyze, graph, fresh) == result(model.analyze, graph, trace)
    assert analysis.validate_trace(graph, fresh) == violations
    return violations


# --- mutations ------------------------------------------------------------------


def first_completed(trace):
    return next((i for i, e in enumerate(trace.events) if e.kind is EventKind.COMPLETED), None)


def duplicate_completion(trace):
    pos = first_completed(trace)
    return None if pos is None else replace(trace, events=trace.events + (trace.events[pos],))


def missing_completion(trace):
    pos = first_completed(trace)
    return None if pos is None else replace(trace, events=trace.events[:pos] + trace.events[pos + 1 :])


def set_segment(trace, pos, **fields):
    segments = list(trace.segments)
    segments[pos] = segments[pos]._replace(**fields)
    return replace(trace, segments=segments)


def set_event(trace, pos, **fields):
    events = list(trace.events)
    events[pos] = events[pos]._replace(**fields)
    return replace(trace, events=events)


def second_on_a_thread(trace):
    """(earlier, later) positions of two segments on one thread, or None."""
    seen = {}
    for pos, seg in enumerate(trace.segments):
        if seg.thread in seen:
            return seen[seg.thread], pos
        seen[seg.thread] = pos
    return None


def overlapping(trace):
    pair = second_on_a_thread(trace)
    if pair is None:
        return None
    earlier, later = pair
    return set_segment(trace, later, start=trace.segments[earlier].start)


def migrated(trace):
    if trace.thread_count < 2:
        return None
    counts = {}
    for pos, seg in enumerate(trace.segments):
        counts[seg.task] = counts.get(seg.task, 0) + 1
        if counts[seg.task] == 2:
            return set_segment(trace, pos, thread=(seg.thread + 1) % trace.thread_count)
    return None


def shortened(trace):
    for pos, seg in enumerate(trace.segments):
        if seg.kind is not SegmentKind.POLL_SPIN and seg.end - seg.start >= 2:
            return set_segment(trace, pos, end=seg.end - 1)
    return None


def not_in_start_order(trace):
    # Later segments first on every thread; ties keep a stable order.
    return replace(trace, segments=sorted(trace.segments, key=lambda s: (s.task, -s.start)))


MUTATIONS = {
    "reversed": lambda t: replace(t, segments=t.segments[::-1]),
    "not_in_start_order": not_in_start_order,
    "overlapping": overlapping,
    "overlapping_reversed": lambda t: (o := overlapping(t)) and replace(o, segments=o.segments[::-1]),
    "duplicate_completion": duplicate_completion,
    "missing_completion": missing_completion,
    "shortened": shortened,
    "shortened_starved": lambda t: (s := shortened(t)) and replace(s, outcome=Outcome.STARVATION_DETECTED),
    "migrated": migrated,
    "idle_threads": lambda t: replace(t, thread_count=t.thread_count + 3),
    "longer_makespan": lambda t: replace(t, makespan=t.makespan + 5),
    "no_threads": lambda t: replace(t, thread_count=0),
    "too_many_threads": lambda t: replace(t, thread_count=MAX_THREADS + 1),
    "negative_task": lambda t: set_segment(t, -1, task=-1),
    "task_past_graph": lambda t: set_segment(t, 0, task=10**6),
    "event_task_past_graph": lambda t: set_event(t, -1, task=10**6),
    "negative_thread": lambda t: set_segment(t, 0, thread=-1),
    "thread_past_count": lambda t: set_segment(t, -1, thread=t.thread_count),
    "event_negative_thread": lambda t: set_event(t, 0, thread=-1),
    "empty_segment": lambda t: set_segment(t, 0, end=t.segments[0].start),
    "segment_past_makespan": lambda t: set_segment(t, -1, end=t.makespan + 1),
    "segment_before_zero": lambda t: set_segment(t, 0, start=-1),
    "event_past_makespan": lambda t: set_event(t, -1, time=t.makespan + 1),
    "event_before_zero": lambda t: set_event(t, 0, time=-1),
    "two_defects": lambda t: set_event(set_segment(t, 0, task=-1), 0, thread=-1),
}


def mutants(graph, trace):
    if not trace.segments or not trace.events:
        return
    for name, mutate in MUTATIONS.items():
        mutated = mutate(trace)
        if mutated:
            yield name, mutated
    yield "task_at_graph_size", set_segment(trace, 0, task=len(graph.tasks))


def undeferred_twice():
    """An undeferred child of a critical-path task that runs two segments."""
    graph = TaskGraph(
        (
            TaskSpec(0, (Compute(1), Spawn(1, DeferMode.UNDEFERRED), Compute(1))),
            TaskSpec(1, (Compute(2), Compute(3))),
        ),
        (0,),
    )
    return graph, simulate(graph, SimConfig(thread_count=2, policy=pol.reference()))


def below_bounds():
    """A completed trace whose makespan is below its graph's critical path
    (two chained tasks run side by side), and one below the work bound
    (two independent tasks at once on one thread)."""
    chain = TaskGraph(
        (TaskSpec(0, (Compute(5), Spawn(1))), TaskSpec(1, (Compute(5),))), (0,)
    )
    side_by_side = ScheduleTrace(
        2,
        (Segment(0, 0, 0, 5, SegmentKind.COMPUTE), Segment(1, 1, 0, 5, SegmentKind.COMPUTE)),
        (TraceEvent(5, EventKind.COMPLETED, 0, 0), TraceEvent(5, EventKind.COMPLETED, 1, 1)),
        5,
        Outcome.COMPLETED,
    )
    pair = TaskGraph((TaskSpec(0, (Compute(10),)), TaskSpec(1, (Compute(10),))), (0, 1))
    at_once = ScheduleTrace(
        1,
        (Segment(0, 1, 0, 10, SegmentKind.COMPUTE), Segment(0, 0, 0, 10, SegmentKind.COMPUTE)),
        (TraceEvent(10, EventKind.COMPLETED, 1, 0), TraceEvent(10, EventKind.COMPLETED, 0, 0)),
        10,
        Outcome.COMPLETED,
    )
    return [(chain, side_by_side), (pair, at_once)]


@pytest.mark.parametrize("corpus", [golden_corpus, many_thread_corpus])
def test_facts_match_the_model_on_the_corpus(corpus):
    runs = 0
    for graph, trace in corpus():
        assert check(graph, trace) == []
        runs += 1
    assert runs > 0


def test_facts_match_the_model_on_mutated_traces():
    kinds = set()
    rejected = set()
    traces = [pair for i, pair in enumerate(golden_corpus()) if i % 40 == 0]
    traces += list(many_thread_corpus())[::10]
    for graph, trace in traces:
        for name, mutated in mutants(graph, trace):
            kinds.update(v.kind for v in check(graph, mutated))
            found = model.untrusted(graph, mutated)
            if found:
                rejected.add(name)
    for graph, trace in below_bounds():
        kinds.update(v.kind for v in check(graph, trace))
        kinds.update(v.kind for v in check(graph, replace(trace, segments=trace.segments[::-1])))
    assert kinds == VIOLATION_KINDS | UNTRUSTED_KINDS
    assert "reversed" not in rejected and "not_in_start_order" not in rejected


def test_undeferred_segments_count_once_each():
    graph, trace = undeferred_twice()
    assert check(graph, trace) == []
    assert analysis.analyze(graph, trace).undeferred_on_critical_path == 2
