"""The decoders' error messages, by mutation.

Each example breaks a valid graph or trace document at one drawn place:
it deletes a key, gives a scalar another JSON type, puts a scalar, null
or an object where an array belongs or a scalar where a record belongs,
or names an unknown enum value.  The decoder must refuse it with a
message that starts with that place, named here from the document alone:
a field as ``<record>, <key>`` and an array item by the singular of its
array's key and its position.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from schedsim import jsontext
from schedsim.engine import SimConfig, simulate
from schedsim.policies import reference
from schedsim.prng import SplitMix64
from schedsim.task_graph import GRAPH_SCHEMA, graph_from_dict, graph_to_json
from schedsim.trace import TRACE_SCHEMA, ScheduleTrace

from graph_draws import poll_graph, sample_graph, tied_forest

ITEMS = {"tasks": "task", "actions": "action", "roots": "root", "segments": "segment", "events": "event"}
ENUMS = {"type", "defer", "yield_mode", "mode", "kind", "outcome"}
OTHERS = [7, 2.5, "", "x", True, None, [], [1], {}, {"a": 1}]

GRAPHS = [sample_graph(SplitMix64(seed)) for seed in range(3)] + [
    poll_graph(SplitMix64(3)),
    tied_forest(SplitMix64(4), 2, latency=True),
]
TRACES = [simulate(graph, SimConfig(thread_count=2, policy=reference(), max_virtual_time=500)) for graph in GRAPHS[:3]]
DOCUMENTS = [(GRAPH_SCHEMA, graph_from_dict, graph_to_json(g)) for g in GRAPHS] + [
    (TRACE_SCHEMA, ScheduleTrace.from_dict, t.to_json()) for t in TRACES
]


def sites(value, at="", key="", loc=()):
    """(name, location, value) of `value` and of every value within it."""
    name = f"{at}, {key}" if at and key else at or key
    yield name, loc, value
    if type(value) is dict:
        for field, each in value.items():
            yield from sites(each, name, field, loc + (field,))
    elif type(value) is list:
        for pos, each in enumerate(value):
            yield from sites(each, at, f"{ITEMS[key]} {pos}", loc + (pos,))


def applies(how, loc, value) -> bool:
    if how == "delete":
        return bool(loc) and type(loc[-1]) is str
    if how == "unknown":
        return bool(loc) and loc[-1] in ENUMS
    if how == "array":
        return type(value) is list
    if how == "record":
        return type(value) is dict
    return type(value) not in (list, dict)


SITES = [list(sites(json.loads(text))) for _, _, text in DOCUMENTS]
KINDS = ["delete", "scalar", "array", "record", "unknown"]
DELETE = object()


def broken(text, loc, new):
    """The document of `text` with the value at `loc` replaced by `new`,
    or deleted if `new` is DELETE."""
    doc = json.loads(text)
    if not loc:
        return new
    parent = doc
    for step in loc[:-1]:
        parent = parent[step]
    if new is DELETE:
        del parent[loc[-1]]
    else:
        parent[loc[-1]] = new
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_break_is_named_where_it_is(data):
    doc = data.draw(st.integers(0, len(DOCUMENTS) - 1), label="document")
    schema, decode, text = DOCUMENTS[doc]
    jsontext.check(schema, json.loads(text))  # the walk finds nothing on the unbroken document
    how = data.draw(st.sampled_from(KINDS), label="how")
    name, loc, value = data.draw(st.sampled_from([s for s in SITES[doc] if applies(how, s[1], s[2])]), label="site")
    if how == "delete":
        new = DELETE
    elif how == "unknown":
        new = "bogus"
    else:  # another JSON type; a record gets a scalar or null
        others = [o for o in OTHERS if type(o) is not type(value) and not (how == "record" and type(o) is list)]
        new = data.draw(st.sampled_from(others), label="value")
    with pytest.raises((TypeError, ValueError)) as info:
        decode(broken(text, loc, new))
    # an enum or tag field that holds a hashable value of another JSON type holds an unknown value
    unknown = how == "unknown" or (how == "scalar" and loc[-1] in ENUMS and type(new) not in (list, dict))
    assert type(info.value) is (ValueError if unknown else TypeError)
    assert str(info.value).startswith(f"{name}: " if name else "expected an object, got ")


def test_several_defects_name_the_first_in_file_order():
    task = {"id": 0, "priority": None, "tied": True, "label": "", "actions": 5}
    with pytest.raises(TypeError, match="^task 0, priority: expected an integer, got null$"):
        graph_from_dict({"tasks": [task], "roots": [0]})
