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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, starmap
from operator import attrgetter
from typing import Union

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
    _violations = cached_property(lambda self: tuple(_find_violations(self)))
    _spawn_parents = cached_property(lambda self: _find_parents(self))
    _work = cached_property(lambda self: tuple(map(_task_work, self.tasks)))


@dataclass(frozen=True)
class Violation:
    """A broken structural rule, named after the rule and offending task."""

    kind: str
    task: TaskId
    detail: str = ""


class CyclicDependencyError(Exception):
    """Poll edges combined with spawn/wait edges form a cycle."""


def spawn_parents(graph: TaskGraph) -> dict:
    """Map child id -> (parent id, action index of the spawn).

    Only the first spawn of each child is recorded; validate() flags
    duplicates separately.  Computed once per graph; each call returns a
    new dict.
    """
    return dict(graph._spawn_parents)


def _find_parents(graph: TaskGraph) -> dict:
    parents = {}
    for spec in graph.tasks:
        for idx, action in enumerate(spec.actions):
            if type(action) is Spawn and action.child not in parents:
                parents[action.child] = (spec.id, idx)
    return parents


def validate(graph: TaskGraph) -> list:
    """Check every structural invariant; violations are data, not errors.
    Computed once per graph; each call returns a new list."""
    return list(graph._violations)


def _find_violations(graph: TaskGraph) -> list:
    if not {TaskSpec}.issuperset(map(type, graph.tasks)):  # the other rules read the tasks' fields
        return [_wrong_type(pos, "task", s, TaskSpec) for pos, s in enumerate(graph.tasks) if type(s) is not TaskSpec]
    violations = []
    n = len(graph.tasks)
    ids = [spec.id for spec in graph.tasks]
    if ids != list(range(n)) or not {int}.issuperset(map(type, ids)):
        for pos, spec in enumerate(graph.tasks):
            if type(spec.id) is not int:
                violations.append(_wrong_type(pos, "id", spec.id))
            elif spec.id != pos:
                violations.append(Violation("BadId", spec.id, f"expected id {pos}"))
        # The field types are checked whatever the ids, each task named by its position.
        numbered = [TaskSpec(pos, s.actions, s.priority, s.tied, s.label) for pos, s in enumerate(graph.tasks)]
        return violations + [v for v in _find_violations(TaskGraph(numbered, graph.roots)) if v.kind == "WrongType"]

    known = set(range(n))
    root_set = set()
    for pos, root in enumerate(graph.roots):
        if type(root) is not int:
            violations.append(_wrong_type(-1, f"root {pos}", root))
        elif root not in known:
            violations.append(Violation("UnknownRoot", root))
        elif root in root_set:
            violations.append(Violation("DuplicateRoot", root))
        root_set.add(root)

    for field, kind in (("priority", int), ("tied", bool), ("label", str)):
        get = attrgetter(field)
        if not {kind}.issuperset(map(type, map(get, graph.tasks))):
            violations += [
                _wrong_type(spec.id, field, get(spec), kind)
                for spec in graph.tasks
                if type(get(spec)) is not kind
            ]

    spawn_count = [0] * n
    for spec in graph.tasks:
        for action in spec.actions:
            kind = type(action)  # exact, as the engine and the file writer dispatch
            if kind is Compute:
                if type(duration := action.duration) is not int:
                    violations.append(_wrong_type(spec.id, "duration", duration))
                elif duration <= 0:
                    violations.append(Violation("NonPositiveDuration", spec.id, str(duration)))
            elif kind is Spawn:
                if type(action.defer) is not DeferMode:
                    violations.append(_wrong_type(spec.id, "defer", action.defer, DeferMode))
                child = action.child
                if type(child) is not int:
                    violations.append(_wrong_type(spec.id, "child", child))
                    continue
                if child not in known:
                    violations.append(Violation("UnknownSpawnTarget", spec.id, str(child)))
                    continue
                if child == spec.id:
                    violations.append(Violation("SelfSpawn", spec.id))
                spawn_count[child] += 1
                if spawn_count[child] == 2:
                    violations.append(Violation("DuplicateSpawn", child))
            elif kind is PollOutcome:
                if type(target := action.target) is not int:
                    violations.append(_wrong_type(spec.id, "target", target))
                elif target not in known:
                    violations.append(Violation("UnknownPollTarget", spec.id, str(target)))
                if type(cost := action.poll_cost) is not int:
                    violations.append(_wrong_type(spec.id, "poll_cost", cost))
                elif cost < 0:
                    violations.append(Violation("NegativePollCost", spec.id))
                if type(action.yield_mode) is not YieldMode:
                    violations.append(_wrong_type(spec.id, "yield_mode", action.yield_mode, YieldMode))
            elif kind is TaskwaitChildren or kind is TaskgroupEnd:
                if type(action.mode) is not WaitMode:
                    violations.append(_wrong_type(spec.id, "mode", action.mode, WaitMode))
            else:
                violations.append(Violation("WrongType", spec.id, f"action: expected an action, got {action!r}"))

    for task_id in range(n):
        spawned = spawn_count[task_id]
        if task_id in root_set:
            if spawned:
                violations.append(Violation("RootAlsoSpawned", task_id))
        elif spawned == 0:
            violations.append(Violation("UnspawnedTask", task_id))

    if any(v.kind == "WrongType" for v in violations):
        return violations  # the parent relation needs integer children
    # Ancestor spawns show up as cycles of the parent relation.  Each task
    # has at most one parent, so one colouring walk visits every task once.
    parents = graph._spawn_parents
    state = [0] * n  # 0 unvisited, 1 on the current walk, 2 finished
    on_cycle = []
    for task_id in range(n):
        walk = []
        cur = task_id
        while cur is not None and state[cur] == 0:
            state[cur] = 1
            walk.append(cur)
            cur = parents[cur][0] if cur in parents else None
        if cur is not None and state[cur] == 1:
            on_cycle.extend(walk[walk.index(cur) :])
        for visited in walk:
            state[visited] = 2
    violations.extend(Violation("SpawnCycle", task_id) for task_id in sorted(on_cycle))

    return violations


def _wrong_type(task, field: str, value, kind: type = int) -> Violation:
    """A field the graph decoders would have refused: they take exact
    ints (never a bool or a float), a bool for ``tied``, a str for
    ``label`` and a member for an enum field; the file writers would
    truncate or garble anything else, and the engine tells the modes
    apart by identity."""
    return Violation("WrongType", task, f"{field}: expected {kind.__name__}, got {value!r}")


def total_work(graph: TaskGraph) -> int:
    """Sum of all compute durations; poll spinning is contention-dependent
    and excluded."""
    return sum(graph._work)


def task_work(graph: TaskGraph) -> tuple:
    """Compute ticks per task, by task position; computed once per graph."""
    return graph._work


def _task_work(spec: TaskSpec) -> int:
    return sum(a.duration for a in spec.actions if type(a) is Compute)


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
    step by step.  Expects a graph that ``validate`` accepts.  Computed
    once per graph; each call returns a new list.
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
    if len(topo) != total:
        raise CyclicDependencyError("poll/wait/spawn edges form a cycle")

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
# Layout: {"tasks": [...], "roots": [...]}; each task
# {"id", "priority", "tied", "label", "actions": [...]}; action objects
# are discriminated by their "type" field.  Field names are stable, and
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
# A task's fields in the order TaskSpec takes them.
_TASK = {"id": int, "actions": ("action", _ACTION), "priority": int, "tied": bool, "label": str}
GRAPH_SCHEMA = {"tasks": ("task", _TASK), "roots": ("root", int)}

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
        return TaskGraph(list(starmap(TaskSpec, tasks)), jsontext.typed(data["roots"], int))


_DEFER_TEXT = jsontext.enum_text(DeferMode)
_YIELD_TEXT = jsontext.enum_text(YieldMode)
_WAIT_TEXT = jsontext.enum_text(WaitMode)
_COMPUTE_JSON = jsontext.record(4, [("type", '"compute"'), ("duration", "%d")])
_SPAWN_JSON = jsontext.record(4, [("type", '"spawn"'), ("child", "%d"), ("defer", "%s")])
_POLL_JSON = jsontext.record(
    4, [("type", '"poll"'), ("target", "%d"), ("yield_mode", "%s"), ("poll_cost", "%d")]
)
_TASKWAIT_JSON = jsontext.record(4, [("type", '"taskwait_children"'), ("mode", "%s")])
_TASKGROUP_JSON = jsontext.record(4, [("type", '"taskgroup_end"'), ("mode", "%s")])
_TASK_JSON = jsontext.record(
    2, [("id", "%d"), ("priority", "%d"), ("tied", "%s"), ("label", "%s"), ("actions", "%s")]
)
_GRAPH_JSON = jsontext.record(0, [("tasks", "%s"), ("roots", "%s")])
_ROOT_JSON = jsontext.INDENT * 2 + "%d"


def _action_json(action: Action) -> str:
    if isinstance(action, Compute):
        return _COMPUTE_JSON % action.duration
    if isinstance(action, Spawn):
        return _SPAWN_JSON % (action.child, _DEFER_TEXT[action.defer])
    if isinstance(action, PollOutcome):
        return _POLL_JSON % (action.target, _YIELD_TEXT[action.yield_mode], action.poll_cost)
    if isinstance(action, TaskwaitChildren):
        return _TASKWAIT_JSON % _WAIT_TEXT[action.mode]
    return _TASKGROUP_JSON % _WAIT_TEXT[action.mode]  # any other action is a WrongType


def graph_to_json(graph: TaskGraph, meta: dict | None = None) -> str:
    """The graph file of `graph`.  A field of the wrong type (the first
    ``WrongType`` of ``validate``) is a TypeError: the file would
    truncate or garble it.  Other violations write and read back as they are."""
    wrong = next((v for v in graph._violations if v.kind == "WrongType"), None)
    if wrong is not None:
        raise TypeError(f"task {wrong.task}, {wrong.detail}")
    tasks = [
        _TASK_JSON
        % (
            spec.id,
            spec.priority,
            "true" if spec.tied else "false",
            jsontext.quote(spec.label),
            jsontext.array([_action_json(a) for a in spec.actions], 3),
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
