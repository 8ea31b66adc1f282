"""Task-graph data model: tasks, actions, validation and graph metrics.

A task body is a straight-line sequence of actions (no branching).  The
spawn relation forms a forest rooted at the graph's root tasks; any
further ordering is expressed through completion polls and wait actions.
Time is measured in integer ticks so every derived quantity is exact.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, starmap
from operator import attrgetter, itemgetter
from typing import NamedTuple, Union

from . import jsontext

TaskId = int
DEFAULT_MAX_VIRTUAL_TIME = 2**62  # where a simulation stops unless told otherwise


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and restore the caller's state
    on the way out, also on an exception.

    Wraps the bulk builders (``simulate``, the graph and trace decoders,
    the per-trace facts pass and ``critical_path``): everything they
    build is acyclic and freed by reference counting, so a collection
    there only walks the heap and finds nothing.  Used as a decorator, as
    ``@_collector_paused()``.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class DeferMode(str, Enum):
    """How a spawn wants the child to be scheduled."""

    RUNTIME_CHOICE = "runtime"
    MUST_DEFER = "must_defer"
    UNDEFERRED = "undeferred"


class YieldMode(str, Enum):
    DEFAULT = "default"
    LATENCY = "latency"
    THROUGHPUT = "throughput"


class WaitMode(str, Enum):
    THROUGHPUT = "throughput"
    LATENCY = "latency"


@dataclass(frozen=True)
class Compute:
    """Run for `duration` ticks without a scheduling point."""

    duration: int


@dataclass(frozen=True)
class Spawn:
    """Create child task `child` with the given defer request."""

    child: TaskId
    defer: DeferMode = DeferMode.RUNTIME_CHOICE


@dataclass(frozen=True)
class PollOutcome:
    """Busy-wait until `target` has completed, yielding between checks.

    Each failed re-check costs up to `poll_cost` ticks of spinning; a
    check that finds the target complete is free.
    """

    target: TaskId
    yield_mode: YieldMode = YieldMode.DEFAULT
    poll_cost: int = 0


@dataclass(frozen=True)
class TaskwaitChildren:
    """Wait for the direct children spawned so far (not their descendants)."""

    mode: WaitMode = WaitMode.THROUGHPUT


@dataclass(frozen=True)
class TaskgroupEnd:
    """Wait for all descendants spawned since the previous group end."""

    mode: WaitMode = WaitMode.THROUGHPUT


Action = Union[Compute, Spawn, PollOutcome, TaskwaitChildren, TaskgroupEnd]


@dataclass(frozen=True)
class TaskSpec:
    """One task: identity, scheduling attributes and its action sequence.

    A tied task, once started, resumes only on the thread that first ran
    it; an untied task may be resumed anywhere.  Higher priority means
    more urgent; the default is 0.
    """

    id: TaskId
    actions: tuple = ()
    priority: int = 0
    tied: bool = True
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True)
class TaskGraph:
    """Immutable task forest; `roots` lists the initial pool in order."""

    tasks: tuple = ()
    roots: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "roots", tuple(self.roots))

    def task(self, task_id: TaskId) -> TaskSpec:
        return self.tasks[task_id]

    def __len__(self) -> int:
        return len(self.tasks)

    # Per-graph results, kept in the instance __dict__, outside the
    # dataclass fields, so ==, hash, repr and JSON ignore them.
    _critical_path = cached_property(lambda self: _longest_chain(self))
    _facts = cached_property(lambda self: _graph_facts(self))


@dataclass(frozen=True)
class Violation:
    """A broken structural rule, named after the rule and offending task."""

    kind: str
    task: TaskId
    detail: str = ""


class CyclicDependencyError(ValueError):
    """Poll edges combined with spawn/wait edges form a cycle."""


class GraphFacts(NamedTuple):
    """What one walk over a graph's tasks and actions finds."""

    violations: tuple
    parents: dict  # child -> (parent id, action index), first spawn of each integer child
    work: tuple  # integer compute ticks per task position


def spawn_parents(graph: TaskGraph) -> dict:
    """Map child id -> (parent id, action index of the spawn), for the
    first spawn of each integer child, known or not; validate() flags the
    others.  Computed once per graph; each call returns a new dict."""
    return dict(graph._facts.parents)


def validate(graph: TaskGraph) -> list:
    """Check every structural invariant; violations are data, not errors.
    Computed once per graph; each call returns a new list."""
    return list(graph._facts.violations)


def _graph_facts(graph: TaskGraph) -> GraphFacts:
    """One walk over `graph`: each field is held to its kind in
    ``GRAPH_SCHEMA`` (a ``WrongType`` names its task by position), then to
    the structural rules, which a bad id stops; a wrong type stops the
    spawn-cycle check.  One action's wrong types come first, in file
    order, then its other violations."""
    tasks, n = graph.tasks, len(graph.tasks)
    if not {TaskSpec}.issuperset(map(type, tasks)):  # the other rules read the tasks' fields
        wrong = [_wrong_type(pos, "task", s, TaskSpec) for pos, s in enumerate(tasks) if type(s) is not TaskSpec]
        return GraphFacts(tuple(wrong), {}, (0,) * n)
    violations = []
    ids, id_kind = list(map(attrgetter("id"), tasks)), _TASK["id"]
    numbered = ids == list(range(n)) and {id_kind}.issuperset(map(type, ids))
    if not numbered:
        for pos, task_id in enumerate(ids):
            if type(task_id) is not id_kind:
                violations.append(_wrong_type(pos, "id", task_id, id_kind))
            elif task_id != pos:
                violations.append(Violation("BadId", task_id, f"expected id {pos}"))

    known, root_set = range(n), set()
    item, kind = GRAPH_SCHEMA["roots"]
    for pos, root in enumerate(graph.roots):
        if type(root) is not kind:
            violations.append(_wrong_type(-1, f"{item} {pos}", root, kind))
        elif root not in known:
            violations.append(Violation("UnknownRoot", root))
        elif root in root_set:
            violations.append(Violation("DuplicateRoot", root))
        if root in known:  # a wrong-typed root equal to a task id, such as False, still roots it
            root_set.add(root)

    for field, kind in _TASK.items():  # the scalar fields, one pass in C each; ids are checked above
        get = attrgetter(field)
        if field != "id" and type(kind) is type and not {kind}.issuperset(map(type, map(get, tasks))):
            violations += [_wrong_type(pos, field, get(s), kind) for pos, s in enumerate(tasks) if type(get(s)) is not kind]

    spawn_count, parents, work, record_of = [0] * n, {}, [], _RECORDS.get
    for pos, spec in enumerate(tasks):
        ticks = 0
        for idx, action in enumerate(spec.actions):
            # The record of its exact class, as the engine and the writer
            # dispatch; then the rules, on the integer fields that are integers.
            for field, kind in record_of(cls := type(action), ()):
                if type(getattr(action, field)) is not kind:
                    violations.append(_wrong_type(pos, field, getattr(action, field), kind))
            if cls is Compute and type(duration := action.duration) is int:
                ticks += duration
                if duration <= 0:
                    violations.append(Violation("NonPositiveDuration", pos, str(duration)))
            elif cls is Spawn and type(child := action.child) is int:
                parents.setdefault(child, (spec.id, idx))
                if child not in known:
                    violations.append(Violation("UnknownSpawnTarget", pos, str(child)))
                    continue
                if child == pos:
                    violations.append(Violation("SelfSpawn", pos))
                spawn_count[child] += 1
                if spawn_count[child] == 2:
                    violations.append(Violation("DuplicateSpawn", child))
            elif cls is PollOutcome:
                if type(target := action.target) is int and target not in known:
                    violations.append(Violation("UnknownPollTarget", pos, str(target)))
                if type(cost := action.poll_cost) is int and cost < 0:
                    violations.append(Violation("NegativePollCost", pos))
            elif cls not in _RECORDS:  # no action: it has no record
                violations.append(Violation("WrongType", pos, f"action: expected an action, got {jsontext.shown(repr(action))}"))
        work.append(ticks)
    if not numbered:  # a bad id stops the structural rules: only the ids and the types are named
        return GraphFacts(tuple(v for v in violations if v.kind in ("BadId", "WrongType")), parents, tuple(work))

    for task_id, spawned in enumerate(spawn_count):
        if task_id in root_set and spawned:
            violations.append(Violation("RootAlsoSpawned", task_id))
        elif task_id not in root_set and not spawned:
            violations.append(Violation("UnspawnedTask", task_id))

    if all(v.kind != "WrongType" for v in violations):  # the parent relation needs integer children
        # Ancestor spawns show up as cycles of the parent relation.  Peel off
        # each task none of whose children is left: the tasks left are on one.
        children = [0] * n
        for child in filter(parents.__contains__, known):
            children[parents[child][0]] += 1
        peeled = [task_id for task_id in known if not children[task_id]]
        for task_id in peeled:  # grows while it is walked
            if task_id in parents:
                parent = parents[task_id][0]
                children[parent] -= 1
                if not children[parent]:
                    peeled.append(parent)
        violations += [Violation("SpawnCycle", task_id) for task_id in known if children[task_id]]
    return GraphFacts(tuple(violations), parents, tuple(work))


def _wrong_type(task, field: str, value, kind: type) -> Violation:
    """A field whose value is not exactly of its kind in ``GRAPH_SCHEMA``:
    the decoders would refuse it, the writers garble it, and the engine
    tells the modes apart by identity.  A long value is cut as the
    decoders cut it."""
    return Violation("WrongType", task, f"{field}: expected {kind.__name__}, got {jsontext.shown(repr(value))}")


def total_work(graph: TaskGraph) -> int:
    """Sum of all integer compute durations, non-positive ones included;
    poll spinning is contention-dependent and excluded."""
    return sum(graph._facts.work)


def task_work(graph: TaskGraph) -> tuple:
    """Integer compute ticks per task, non-positive ones included, by task
    position; computed once per graph."""
    return graph._facts.work


def wait_members(spec: TaskSpec, idx: int) -> list:
    """The children the wait at ``spec.actions[idx]`` covers, in spawn
    order: those spawned since the previous wait of the same kind, which
    let the task go on only once what it covered was done.  Reading every
    wait of a task takes one pass over its actions per kind."""
    actions = spec.actions
    kind = type(actions[idx])
    members = []
    for pos in range(idx - 1, -1, -1):
        action = actions[pos]
        if type(action) is kind:
            break
        if type(action) is Spawn:
            members.append(action.child)
    members.reverse()
    return members


def critical_path(graph: TaskGraph):
    """Longest dependency-respecting chain of compute ticks.

    Returns (length, path) where path lists the tasks contributing
    compute along one maximal chain (consecutive repeats collapsed).
    Edge rules: action order within a task; a spawn precedes the child's
    first action; an undeferred spawn also serializes the child before
    the parent's next action; a wait is preceded by the children it
    covers (``wait_members``): a children wait by their completions, a
    group end by their subtrees, and what an earlier wait of the same
    kind covered reaches the wait through that one; a poll is preceded
    by its target's completion.
    Ties between equal-length chains pick the smallest (task, action)
    step by step.  Expects a graph that ``validate`` accepts; poll and
    wait edges that close a cycle, which ``validate`` does not check,
    raise CyclicDependencyError.  Computed once per graph; each call
    returns a new list.
    """
    length, path = graph._critical_path
    return length, list(path)


@_collector_paused()
def _longest_chain(graph: TaskGraph):
    # Nodes: up(t) = t, a zero-weight "subtree done" node after t's completion
    # n + t and its children's up nodes, so a group end needs an edge per member,
    # not per descendant; then units in (task, action) order, each a wait or
    # poll, computes, then a spawn or the task's end.  `after` holds each node's
    # one natural successor: the next unit, the completion, up(t), up(parent),
    # or the sink -1.  Spawns, waits, polls and undeferred spawns fill `more`.
    tasks = graph.tasks
    n = len(tasks)
    weight, after = [0] * (2 * n), [-1] * n + list(range(n))
    first, spawns, more = [], [], {}
    for t, spec in enumerate(tasks):
        first.append(len(weight))
        w, marks = 0, [len(spawns)] * 2  # first spawn a children wait, a group end covers
        for action in spec.actions:
            kind = type(action)
            if kind is Compute:
                w += action.duration
            elif kind is Spawn:
                spawns.append((len(weight), action.child))
                after[action.child] = t
                if action.defer is DeferMode.UNDEFERRED:
                    more.setdefault(n + action.child, []).append(len(weight) + 1)
                weight.append(w)
                after.append(len(weight))
                w = 0
            else:  # a wait or poll starts a unit, or joins one that has no compute yet
                if w:
                    weight.append(w)
                    after.append(len(weight))
                    w = 0
                if kind is PollOutcome:
                    more.setdefault(n + action.target, []).append(len(weight))
                    continue
                group = kind is TaskgroupEnd  # which waits on subtrees, not completions
                for _, child in spawns[marks[group]:]:
                    more.setdefault(child if group else n + child, []).append(len(weight))
                marks[group] = len(spawns)
        weight.append(w)
        after.append(n + t)
    more.update((unit, [first[child]]) for unit, child in spawns)

    # Kahn order doubles as the cycle check; any topological order gives
    # the same lengths and choices below.
    total = len(weight)
    indeg = [0] * (total + 1)
    for nxt in chain(after, *more.values()):
        indeg[nxt] += 1
    indeg[-1] = total  # the sink is never walked
    topo = [unit for unit in first if not indeg[unit]]
    get = more.get
    for cur in topo:  # topo grows while it is walked
        nxt = after[cur]
        indeg[nxt] -= 1
        if not indeg[nxt]:
            topo.append(nxt)
        for nxt in get(cur, ()):
            indeg[nxt] -= 1
            if not indeg[nxt]:
                topo.append(nxt)
    if len(topo) != total:  # what the walk left out still has an in-edge
        unit = next(unit for unit in range(2 * n, total) if indeg[unit])
        task = tasks[bisect_right(first, unit) - 1].id
        raise CyclicDependencyError(f"poll/wait/spawn edges form a cycle; task {task} is on it or waits behind it")

    best = [0] * (total + 1)  # best length from node to any sink, inclusive
    rank = [0] * n  # of up(t): the unit its chosen successors lead to
    for i in reversed(topo):
        if i >= n:
            b = best[after[i]]
            for nxt in get(i, ()):
                if best[nxt] > b:
                    b = best[nxt]
            best[i] = weight[i] + b
        elif (chosen := _choose(i, after, best, get, rank, n)) is not None:
            best[i] = best[chosen]
            rank[i] = chosen if chosen >= n else rank[chosen]

    if not graph.roots:
        return 0, ()
    cur = start = min((first[root] for root in graph.roots), key=lambda i: (-best[i], i))
    path = []
    while cur is not None:
        if weight[cur] and path[-1:] != [owner := bisect_right(first, cur) - 1]:
            path.append(tasks[owner].id)  # the task's own int, which the cached path shares
        cur = _choose(cur, after, best, get, rank, n)
    return best[start], tuple(path)


def _choose(i, after, best, get, rank, n):
    """Node `i`'s successor on its longest chain, ties to the smallest rank
    (an up node's is `rank`, any other node's itself); None if all are 0."""
    chosen = after[i]
    for nxt in get(i, ()):
        if best[nxt] > best[chosen] or best[nxt] == best[chosen] and (
            nxt if nxt >= n else rank[nxt]) < (chosen if chosen >= n else rank[chosen]):
            chosen = nxt
    return chosen if best[chosen] else None


# --- JSON serialization -------------------------------------------------
#
# Layout: GRAPH_SCHEMA, its keys in file order; action objects are
# discriminated by their "type" field.  Field names are stable, and
# graph_to_json writes the layout exactly as json.dumps(doc, indent=2) would.


_read_defer = jsontext.enum_reader(DeferMode)
_read_yield = jsontext.enum_reader(YieldMode)


_int_compute = lru_cache(maxsize=1024)(Compute)  # called with exact ints only
# One wait action per kind and mode value, shared by every decoded graph.
_WAITS = {(kind, mode.value): kind(mode) for kind in (TaskwaitChildren, TaskgroupEnd) for mode in WaitMode}


def _compute(duration: int) -> Compute:
    """One Compute per integer duration, shared by every graph the decoders
    and generators build: it is frozen, and most graphs use a handful of
    durations.  The cache takes exact ints only, as ``True`` and ``1.0``
    equal and hash as ``1``: keyed on the value alone, it would hand one
    back for the other."""
    return _int_compute(duration) if type(duration) is int else Compute(duration)


def _refuse(value):  # for a value that failed a reader's type test; `jsontext.check` names it
    raise TypeError(value)


_ACTION = {
    "type": {
        "compute": {"duration": int},
        "spawn": {"child": int, "defer": DeferMode},
        "poll": {"target": int, "yield_mode": YieldMode, "poll_cost": int},
        "taskwait_children": {"mode": WaitMode},
        "taskgroup_end": {"mode": WaitMode},
    }
}
_TASK = {"id": int, "priority": int, "tied": bool, "label": str, "actions": ("action", _ACTION)}
GRAPH_SCHEMA = {"tasks": ("task", _TASK), "roots": ("root", int)}
_RECORDS = {  # each action class's (field, kind) pairs in file order, by exact class
    cls: tuple(record.items())
    for cls, record in zip((Compute, Spawn, PollOutcome, TaskwaitChildren, TaskgroupEnd), _ACTION["type"].values())
}
_TASK_ARGS = itemgetter(*(list(_TASK).index(field.name) for field in fields(TaskSpec)))  # a row in TaskSpec's order

_ACTION_READERS = {
    "compute": lambda d: _int_compute(v) if type(v := d["duration"]) is int else _refuse(v),
    "spawn": lambda d: Spawn(v if type(v := d["child"]) is int else _refuse(v), _read_defer(d["defer"])),
    "poll": lambda d: PollOutcome(
        v if type(v := d["target"]) is int else _refuse(v),
        _read_yield(d["yield_mode"]),
        c if type(c := d["poll_cost"]) is int else _refuse(c),
    ),
    "taskwait_children": lambda d: _WAITS[TaskwaitChildren, d["mode"]],
    "taskgroup_end": lambda d: _WAITS[TaskgroupEnd, d["mode"]],
}


def _read_actions(actions: list) -> tuple:
    return tuple([_ACTION_READERS[action["type"]](action) for action in actions])


@_collector_paused()
def graph_from_dict(data: dict) -> TaskGraph:
    """The graph of a parsed graph file, laid out as ``GRAPH_SCHEMA``.
    Integer fields take JSON integers only, ``tied`` a JSON boolean,
    ``label`` a string and ``tasks``, ``roots`` and ``actions`` an array:
    any other value, or a missing key, is a TypeError that names the task,
    the action and the field, never a silent conversion; an unknown action
    type or mode is a ValueError, and an unhashable one a TypeError, that
    names them alike."""
    with jsontext.decoding(GRAPH_SCHEMA, data):
        tasks = jsontext.records(tuple, data["tasks"], _TASK, actions=_read_actions)
        return TaskGraph(list(starmap(TaskSpec, map(_TASK_ARGS, tasks))), jsontext.typed(data["roots"], int))


_DEFER_TEXT = jsontext.enum_text(DeferMode)
_YIELD_TEXT = jsontext.enum_text(YieldMode)
_WAIT_TEXT = jsontext.enum_text(WaitMode)
# One template per action variant, its "type" tag first and baked in.
_COMPUTE_JSON, _SPAWN_JSON, _POLL_JSON, _TASKWAIT_JSON, _TASKGROUP_JSON = (
    jsontext.template(4, {"type": _ACTION["type"], **variant}, type=jsontext.quote(tag))
    for tag, variant in _ACTION["type"].items()
)
_TASK_JSON = jsontext.template(2, _TASK)
_GRAPH_JSON = jsontext.template(0, GRAPH_SCHEMA)
_ROOT_JSON = jsontext.INDENT * 2 + "%d"
_ACTION_JSON = {  # by exact class, as graph_to_json refuses any other
    Compute: lambda a: _COMPUTE_JSON % a.duration,
    Spawn: lambda a: _SPAWN_JSON % (a.child, _DEFER_TEXT[a.defer]),
    PollOutcome: lambda a: _POLL_JSON % (a.target, _YIELD_TEXT[a.yield_mode], a.poll_cost),
    TaskwaitChildren: lambda a: _TASKWAIT_JSON % _WAIT_TEXT[a.mode],
    TaskgroupEnd: lambda a: _TASKGROUP_JSON % _WAIT_TEXT[a.mode],
}


def graph_to_json(graph: TaskGraph, meta: dict | None = None) -> str:
    """The graph file of `graph`.  A field of the wrong type (the first
    ``WrongType`` of ``validate``) is a TypeError: the file would
    truncate or garble it.  Other violations write and read back as they are."""
    wrong = next((v for v in graph._facts.violations if v.kind == "WrongType"), None)
    if wrong is not None:
        raise TypeError(f"task {wrong.task}, {wrong.detail}")
    tasks = [
        _TASK_JSON
        % (
            spec.id,
            spec.priority,
            "true" if spec.tied else "false",
            jsontext.quote(spec.label),
            jsontext.array([_ACTION_JSON[type(a)](a) for a in spec.actions], 3),
        )
        for spec in graph.tasks
    ]
    roots = [_ROOT_JSON % root for root in graph.roots]
    return jsontext.document(
        _GRAPH_JSON, (jsontext.array(tasks, 1), jsontext.array(roots, 1)), meta
    )


@_collector_paused()
def graph_from_json(text: str) -> TaskGraph:
    return graph_from_dict(json.loads(text))
