"""The template writers against json's own encoder.

``ScheduleTrace.to_json`` and ``graph_to_json`` fill fixed templates
instead of calling ``json.dumps(..., indent=2)``; that call stays here as
the oracle, over drawn traces and graphs that need not be valid, so every
field can take values the generators never produce.
"""

import json

from hypothesis import example, given, settings, strategies as st

from schedsim.engine import EventKind, Outcome, ScheduleTrace, Segment, SegmentKind, TraceEvent
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
    graph_from_json,
    graph_to_json,
)

from graph_model import graph_to_dict

ints = st.one_of(
    st.integers(-3, 40),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
)
texts = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\r é東\U0001F680'), st.characters()),
    max_size=8,
)
json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats(allow_nan=False) | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
metas = st.one_of(st.none(), st.just({}), st.dictionaries(texts, json_values, max_size=4))

actions = st.one_of(
    st.builds(Compute, ints),
    st.builds(Spawn, ints, st.sampled_from(DeferMode)),
    st.builds(PollOutcome, ints, st.sampled_from(YieldMode), ints),
    st.builds(TaskwaitChildren, st.sampled_from(WaitMode)),
    st.builds(TaskgroupEnd, st.sampled_from(WaitMode)),
)
graphs = st.builds(
    TaskGraph,
    st.lists(st.builds(TaskSpec, ints, st.lists(actions, max_size=4), ints, st.booleans(), texts), max_size=4),
    st.lists(ints, max_size=3),
)
traces = st.builds(
    ScheduleTrace,
    ints,
    st.lists(st.builds(Segment, ints, ints, ints, ints, st.sampled_from(SegmentKind)), max_size=4).map(tuple),
    st.lists(st.builds(TraceEvent, ints, st.sampled_from(EventKind), ints, ints), max_size=4).map(tuple),
    ints,
    st.sampled_from(Outcome),
)

NESTED_META = {"tool": "schedsim", "invocation": {"k": [1, 2], "out": "a/b\\c", "note": "東京 \U0001F680"}}
EMPTY_TASK = TaskSpec(id=-1, actions=(), priority=-(2**70), tied=False, label="\"\\\x00 \U0001F680")
ALL_ACTIONS = (
    Compute(2**64),
    *(Spawn(1, mode) for mode in DeferMode),
    *(PollOutcome(0, mode, -3) for mode in YieldMode),
    *(TaskwaitChildren(mode) for mode in WaitMode),
    *(TaskgroupEnd(mode) for mode in WaitMode),
)


@settings(max_examples=100, deadline=None)
@given(graph=graphs, meta=metas)
@example(graph=TaskGraph(), meta=None)
@example(graph=TaskGraph(tasks=(EMPTY_TASK,), roots=()), meta={})
@example(graph=TaskGraph(tasks=(TaskSpec(0, ALL_ACTIONS, label="é"),), roots=(0, 2**63)), meta=NESTED_META)
def test_graph_writer_equals_json_dumps(graph, meta):
    text = graph_to_json(graph, meta)
    assert text == json.dumps(graph_to_dict(graph, meta), indent=2)
    assert graph_from_json(text) == graph


@settings(max_examples=100, deadline=None)
@given(trace=traces, meta=metas)
@example(trace=ScheduleTrace(1, (), (), 0, Outcome.COMPLETED), meta=None)
@example(
    trace=ScheduleTrace(
        2**63,
        tuple(Segment(0, 1, -2, 2**64, kind) for kind in SegmentKind),
        tuple(TraceEvent(-(2**63) - 1, kind, 3, 1) for kind in EventKind),
        2**70,
        Outcome.TIME_LIMIT_EXCEEDED,
    ),
    meta=NESTED_META,
)
def test_trace_writer_equals_json_dumps(trace, meta):
    text = trace.to_json(meta)
    assert text == json.dumps(trace.to_dict(meta), indent=2)
    assert ScheduleTrace.from_json(text) == trace
