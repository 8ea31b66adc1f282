"""Schedule traces: the segments and events a simulation emits, their
JSON and CSV files, and the graph-independent facts the analysis reads
from them.  Nothing here needs the simulator, so reading and analysing
trace files loads neither the engine nor the policies."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import is_, itemgetter, le
from typing import NamedTuple

from . import jsontext
from .task_graph import _collector_paused

MAX_THREADS = 1 << 16


class Outcome(str, Enum):
    COMPLETED = "completed"
    STARVATION_DETECTED = "starvation_detected"
    TIME_LIMIT_EXCEEDED = "time_limit_exceeded"


class SegmentKind(str, Enum):
    COMPUTE = "compute"
    POLL_SPIN = "poll_spin"
    UNDEFERRED = "undeferred_nested"


class EventKind(str, Enum):
    SPAWNED = "spawned"
    STOLEN = "stolen"
    SCATTERED = "scattered"
    THROTTLED = "throttled"
    YIELDED = "yielded"
    WAIT_ENTERED = "wait_entered"
    WAIT_EXITED = "wait_exited"
    COMPLETED = "completed"


class Segment(NamedTuple):
    thread: int
    task: int
    start: int
    end: int
    kind: SegmentKind


class TraceEvent(NamedTuple):
    time: int
    kind: EventKind
    task: int
    thread: int


_read_outcome = jsontext.enum_reader(Outcome)
_OUTCOME_TEXT = jsontext.enum_text(Outcome)
_SEGMENT_JSON = {
    kind: jsontext.record(
        2, [("thread", "%d"), ("task", "%d"), ("start", "%d"), ("end", "%d"), ("kind", text)]
    )
    for kind, text in jsontext.enum_text(SegmentKind).items()
}
_EVENT_JSON = {
    kind: jsontext.record(2, [("time", "%d"), ("kind", text), ("task", "%d"), ("thread", "%d")])
    for kind, text in jsontext.enum_text(EventKind).items()
}
_TRACE_JSON = jsontext.record(
    0,
    [
        ("thread_count", "%d"),
        ("makespan", "%d"),
        ("outcome", "%s"),
        ("segments", "%s"),
        ("events", "%s"),
    ],
)


_SEGMENT = {"thread": int, "task": int, "start": int, "end": int, "kind": SegmentKind}
_EVENT = {"time": int, "kind": EventKind, "task": int, "thread": int}
TRACE_SCHEMA = {
    "thread_count": int, "makespan": int, "outcome": Outcome,
    "segments": ("segment", _SEGMENT), "events": ("event", _EVENT),
}
_TRACE_FIELDS = itemgetter(*TRACE_SCHEMA)


@dataclass(frozen=True)
class ScheduleTrace:
    thread_count: int
    segments: tuple
    events: tuple
    makespan: int
    outcome: Outcome

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "events", tuple(self.events))

    # Graph-independent facts, built on first read and kept in the instance
    # __dict__, outside the dataclass fields, so ==, hash, repr and JSON
    # ignore them; the records are tuples, so they cannot go stale.
    _bounds = cached_property(lambda self: _trace_bounds(self))
    _facts = cached_property(lambda self: _trace_facts(self))

    def to_dict(self, meta: dict | None = None) -> dict:
        out = {}
        if meta:
            out["meta"] = dict(meta)
        out.update(
            {
                "thread_count": self.thread_count,
                "makespan": self.makespan,
                "outcome": self.outcome.value,
                "segments": [dict(s._asdict(), kind=s.kind.value) for s in self.segments],
                "events": [dict(e._asdict(), kind=e.kind.value) for e in self.events],
            }
        )
        return out

    @staticmethod
    @_collector_paused()
    def from_dict(data: dict) -> "ScheduleTrace":
        """The trace `to_dict` wrote, laid out as ``TRACE_SCHEMA``.  Integer
        fields take JSON integers only, and ``segments`` and ``events`` an
        array: any other value, or a missing key, is a TypeError that names
        the record and the field, not a conversion; an unknown kind or
        outcome is a ValueError named alike."""
        with jsontext.decoding(TRACE_SCHEMA, data):
            thread_count, makespan, outcome, segments, events = _TRACE_FIELDS(data)
            return ScheduleTrace(
                jsontext.typed([thread_count], int)[0],
                jsontext.records(Segment, segments, _SEGMENT),
                jsontext.records(TraceEvent, events, _EVENT),
                jsontext.typed([makespan], int)[0],
                _read_outcome(outcome),
            )

    def to_json(self, meta: dict | None = None) -> str:
        """Exactly ``json.dumps(self.to_dict(meta), indent=2)``."""
        # Positional reads: a named tuple's field names cost a descriptor call each.
        segments = [_SEGMENT_JSON[s[4]] % s[:4] for s in self.segments]
        events = [_EVENT_JSON[e[1]] % (e[0], e[2], e[3]) for e in self.events]
        values = (
            self.thread_count,
            self.makespan,
            _OUTCOME_TEXT[self.outcome],
            jsontext.array(segments, 1),
            jsontext.array(events, 1),
        )
        return jsontext.document(_TRACE_JSON, values, meta)

    @staticmethod
    @_collector_paused()
    def from_json(text: str) -> "ScheduleTrace":
        return ScheduleTrace.from_dict(json.loads(text))

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["thread", "task", "start", "end", "kind"])
        for s in self.segments:
            writer.writerow([s.thread, s.task, s.start, s.end, s.kind.value])
        return buf.getvalue()


class TraceBounds(NamedTuple):
    """What the trust gate needs of a trace, read in C column by column:
    the extremes of the task ids, and whether every record fits the trace
    itself (threads in ``[0, thread_count)``, segments that end after they
    start, everything within ``[0, makespan]``)."""

    task_min: int
    task_max: int
    fits: bool


class TraceFacts(NamedTuple):
    """Graph-independent sums over a trace that fits its bounds, from one
    positional pass over the segments and one over the events.  Per-task
    tuples run to the largest task id in the trace."""

    busy: tuple  # ticks per thread, spins included
    compute_ticks: int
    spin_ticks: int
    executed: tuple  # non-spin ticks per task
    completions: tuple  # completed events per task
    undeferred: dict  # task -> its undeferred segments
    off_home: tuple  # per segment on another thread than its task's first, its task
    overlapping: tuple  # threads with overlapping segments, ascending
    throttled: int


_seg_thread, _seg_task, _seg_start, _seg_end = map(itemgetter, range(4))
_event_time, _event_kind, _event_task, _event_thread = map(itemgetter, range(4))


def _extent(*columns):
    """(min, max) over (getter, records) columns, read in C without a list
    of the values; (0, -1) when they hold no records."""
    if not any(records for _, records in columns):
        return 0, -1
    low = min(min(map(get, records)) for get, records in columns if records)
    high = max(max(map(get, records)) for get, records in columns if records)
    return low, high


def _trace_bounds(trace: ScheduleTrace) -> TraceBounds:
    segments, events = trace.segments, trace.events
    task_min, task_max = _extent((_seg_task, segments), (_event_task, events))
    thread_min, thread_max = _extent((_seg_thread, segments), (_event_thread, events))
    time_min, time_max = _extent((_event_time, events))
    makespan = trace.makespan
    fits = (
        0 <= thread_min
        and thread_max < trace.thread_count
        and not any(map(le, map(_seg_end, segments), map(_seg_start, segments)))
        and 0 <= min(map(_seg_start, segments), default=0)
        and max(map(_seg_end, segments), default=0) <= makespan
        and 0 <= time_min
        and time_max <= makespan
    )
    return TraceBounds(task_min, task_max, fits)


@_collector_paused()
def _trace_facts(trace: ScheduleTrace) -> TraceFacts:
    """Read only once the trace's bounds fit a graph: the pass indexes
    lists by the thread and task ids of the records."""
    tasks = trace._bounds.task_max + 1
    busy = [0] * trace.thread_count
    last_end = [0] * trace.thread_count
    executed = [0] * tasks
    home = [-1] * tasks
    undeferred = {}
    off_home = []
    unordered = set()
    spin = 0
    spin_kind, undeferred_kind = SegmentKind.POLL_SPIN, SegmentKind.UNDEFERRED
    for thread, task, start, end, kind in trace.segments:
        length = end - start
        busy[thread] += length
        if start < last_end[thread]:
            unordered.add(thread)
        last_end[thread] = end
        first = home[task]
        if first != thread:
            if first < 0:
                home[task] = thread
            else:
                off_home.append(task)
        if kind is spin_kind:
            spin += length
            continue
        executed[task] += length
        if kind is undeferred_kind:
            undeferred[task] = undeferred.get(task, 0) + 1

    # A thread whose segments run in start order, each after the previous
    # one ended, has no overlap; the others are sorted and checked in full.
    overlapping = []
    for thread in sorted(unordered):
        spans = sorted((s[2], s[3]) for s in trace.segments if s[0] == thread)
        if any(cur[0] < prev[1] for prev, cur in zip(spans, spans[1:])):
            overlapping.append(thread)

    events = trace.events
    kinds = list(map(_event_kind, events))
    completions = [0] * tasks
    for task in compress(map(_event_task, events), map(is_, kinds, repeat(EventKind.COMPLETED))):
        completions[task] += 1

    return TraceFacts(
        busy=tuple(busy),
        compute_ticks=sum(busy) - spin,
        spin_ticks=spin,
        executed=tuple(executed),
        completions=tuple(completions),
        undeferred=undeferred,
        off_home=tuple(off_home),
        overlapping=tuple(overlapping),
        throttled=sum(map(is_, kinds, repeat(EventKind.THROTTLED))),
    )

