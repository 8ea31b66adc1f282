"""Trace metrics, flaw detection, policy comparison and rendering.

All ratios are exact fractions over integer tick counts, so reports are
reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from .trace import MAX_THREADS, EventKind, Outcome, ScheduleTrace, SegmentKind
from .task_graph import (
    TaskGraph,
    Violation,
    critical_path,
    spawn_parents,
    task_work,
    total_work,
)

#: Labels the two-timestep generator puts on its tasks; group start
#: latency is only defined for graphs carrying them.
DRIVER_LABEL = "driver"
SECOND_GROUP_LABEL = "traversal-g2"

#: ``str.translate`` table to legal XML text: entities for markup, U+FFFD for code points XML 1.0 forbids.
_XML_TEXT = {38: "&amp;", 60: "&lt;", 62: "&gt;"} | dict.fromkeys(
    [*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF], "\ufffd")


class TraceMismatchError(Exception):
    """The trace does not fit the graph or itself: see ``_untrusted``."""


@dataclass(frozen=True)
class AnalysisReport:
    makespan: int
    critical_path_length: int
    occupancy: Fraction
    per_thread_busy: tuple
    throttled_spawns: int
    undeferred_on_critical_path: int
    group_start_latency: int
    starvation: bool
    poll_spin_ticks: int

    def to_dict(self) -> dict:
        busy = [str(f) for f in self.per_thread_busy]
        return dict(asdict(self), occupancy=str(self.occupancy), per_thread_busy=busy)

    def to_text(self) -> str:
        rows = [
            ("makespan", self.makespan),
            ("critical path", self.critical_path_length),
            ("occupancy", self.occupancy),
            ("throttled spawns", self.throttled_spawns),
            ("undeferred on critical path", self.undeferred_on_critical_path),
            ("group start latency", self.group_start_latency),
            ("poll spin ticks", self.poll_spin_ticks),
            ("starvation", self.starvation),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        for idx, busy in enumerate(self.per_thread_busy):
            lines.append(f"{f'thread {idx} busy':<{width}}  {busy}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ComparisonReport:
    baseline_makespan: int
    variant_makespan: int
    reduction_percent: Fraction
    flaw_deltas: dict

    def to_dict(self) -> dict:
        return dict(asdict(self), reduction_percent=str(self.reduction_percent))


def _untrusted(graph: TaskGraph, trace: ScheduleTrace) -> list:
    """(violation kind, id, message) for each defect that makes `trace`
    unfit to analyse against `graph`: ``NoThreads`` or ``TooManyThreads``
    (a thread count outside ``[1, MAX_THREADS]``), then in trace order
    ``UnknownTask`` and ``UnknownThread`` (a task outside the graph, a
    thread outside ``[0, thread_count)``), ``EmptySegment`` and
    ``OutsideMakespan`` (outside ``[0, makespan]``).  The trace's cached
    bounds decide; the ordered scan runs only to word a defect."""
    bounds = trace._bounds
    if (
        1 <= trace.thread_count <= MAX_THREADS
        and bounds.fits
        and 0 <= bounds.task_min
        and bounds.task_max < len(graph.tasks)
    ):
        return []
    return _defects(graph, trace)


def _defects(graph: TaskGraph, trace: ScheduleTrace) -> list:
    n = len(graph.tasks)
    threads = trace.thread_count
    makespan = trace.makespan
    found = []
    if threads < 1:
        found.append(("NoThreads", threads, f"trace has thread_count {threads}"))
    elif threads > MAX_THREADS:
        found.append(("TooManyThreads", threads, f"trace has thread_count {threads} > {MAX_THREADS}"))

    def refs(kind, record):
        if not 0 <= record.task < n:
            found.append(("UnknownTask", record.task, f"{kind} references unknown task {record.task}"))
        if not 0 <= record.thread < threads:
            found.append(("UnknownThread", record.thread, f"{kind} references unknown thread {record.thread}"))

    outside = f"lies outside [0, makespan {makespan}]"
    for seg in trace.segments:
        refs("segment", seg)
        if seg.end <= seg.start:
            found.append(("EmptySegment", seg.task, f"segment of task {seg.task} does not end after it starts"))
        elif seg.start < 0 or seg.end > makespan:
            found.append(("OutsideMakespan", seg.task, f"segment of task {seg.task} {outside}"))
    for event in trace.events:
        refs("event", event)
        if not 0 <= event.time <= makespan:
            found.append(("OutsideMakespan", event.task, f"event of task {event.task} {outside}"))
    return found


def _check(graph: TaskGraph, trace: ScheduleTrace):
    """Raise TraceMismatchError with the first defect ``_untrusted`` finds."""
    untrusted = _untrusted(graph, trace)
    if untrusted:
        raise TraceMismatchError(untrusted[0][2])


def analyze(graph: TaskGraph, trace: ScheduleTrace) -> AnalysisReport:
    """Compute the full metric set for one trace of `graph`."""
    _check(graph, trace)
    facts = trace._facts
    cp_length, cp_tasks = critical_path(graph)

    undeferred_on_cp = 0
    if facts.undeferred:
        cp_set = set(cp_tasks)
        parents = spawn_parents(graph)
        for task, count in facts.undeferred.items():
            parent = parents.get(task)
            if parent is not None and parent[0] in cp_set:
                undeferred_on_cp += count

    makespan = trace.makespan
    if makespan > 0:
        occupancy = Fraction(facts.compute_ticks, makespan * trace.thread_count)
        per_thread = tuple(Fraction(b, makespan) for b in facts.busy)
    else:
        occupancy = Fraction(0)
        per_thread = tuple(Fraction(0) for _ in facts.busy)

    return AnalysisReport(
        makespan=makespan,
        critical_path_length=cp_length,
        occupancy=occupancy,
        per_thread_busy=per_thread,
        throttled_spawns=facts.throttled,
        undeferred_on_critical_path=undeferred_on_cp,
        group_start_latency=_group_start_latency(graph, trace),
        starvation=trace.outcome is Outcome.STARVATION_DETECTED,
        poll_spin_ticks=facts.spin_ticks,
    )


def _group_start_latency(graph: TaskGraph, trace: ScheduleTrace) -> int:
    driver_ids = {t.id for t in graph.tasks if t.label == DRIVER_LABEL}
    group2_ids = {t.id for t in graph.tasks if t.label == SECOND_GROUP_LABEL}
    if not driver_ids or not group2_ids:
        return 0
    gate = None
    for event in trace.events:
        if event.kind is EventKind.WAIT_EXITED and event.task in driver_ids:
            gate = event.time
            break
    if gate is None:
        return 0
    first_start = {}
    for seg in trace.segments:
        if seg.task in group2_ids and seg.task not in first_start:
            first_start[seg.task] = seg.start
    if set(first_start) != group2_ids:
        return 0
    return max(first_start.values()) - gate


def makespan_reduction(baseline: int, variant: int) -> Fraction:
    """Percent by which `variant` shortens the `baseline` makespan; 0 for
    an empty baseline."""
    if baseline == 0:
        return Fraction(0)
    return 100 * Fraction(baseline - variant, baseline)


#: The report fields ``compare`` gives deltas of, in output order.
_FLAW_FIELDS = ("throttled_spawns", "undeferred_on_critical_path", "group_start_latency", "poll_spin_ticks", "starvation")


def compare(graph: TaskGraph, baseline: ScheduleTrace, variant: ScheduleTrace) -> ComparisonReport:
    """Relative makespan reduction of `variant` over `baseline`; positive
    when the variant is faster."""
    base_report = analyze(graph, baseline)
    var_report = analyze(graph, variant)
    reduction = makespan_reduction(base_report.makespan, var_report.makespan)
    deltas = {key: getattr(var_report, key) - getattr(base_report, key) for key in _FLAW_FIELDS}
    return ComparisonReport(
        baseline_makespan=base_report.makespan,
        variant_makespan=var_report.makespan,
        reduction_percent=reduction,
        flaw_deltas=deltas,
    )


def validate_trace(graph: TaskGraph, trace: ScheduleTrace) -> list:
    """Engine self-check: structural invariants any trace must satisfy.

    Violations are returned as data; an empty list means the trace is
    consistent with the graph.
    """
    untrusted = _untrusted(graph, trace)
    if untrusted:
        return [Violation(violation, ident) for violation, ident, _ in untrusted]
    facts = trace._facts

    violations = [Violation("OverlappingSegments", thread) for thread in facts.overlapping]
    violations += [
        Violation("DuplicateCompletion", task)
        for task, count in enumerate(facts.completions)
        if count > 1
    ]

    # Work conservation and single execution only hold for complete runs.
    if trace.outcome is Outcome.COMPLETED:
        work = task_work(graph)
        n = len(work)
        executed = facts.executed + (0,) * (n - len(facts.executed))
        completions = facts.completions + (0,) * (n - len(facts.completions))
        violations += [Violation("WorkNotConserved", t) for t in range(n) if executed[t] != work[t]]
        violations += [Violation("MissingCompletion", t) for t in range(n) if completions[t] != 1]

        cp_length, _ = critical_path(graph)
        if trace.makespan < cp_length:
            violations.append(Violation("MakespanBelowCriticalPath", -1))
        threads_used = sum(1 for ticks in facts.busy if ticks)
        if threads_used:
            bound = -(-total_work(graph) // threads_used)
            if trace.makespan < bound:
                violations.append(Violation("MakespanBelowWorkBound", -1))

    # Tied residency holds regardless of outcome.
    tasks = graph.tasks
    violations += [Violation("TiedTaskMigrated", task) for task in facts.off_home if tasks[task].tied]
    return violations


# --- SVG Gantt rendering --------------------------------------------------

_PALETTE = [
    "#4878cf", "#6acc65", "#d65f5f", "#b47cc7",
    "#c4ad66", "#77bedb", "#e49444", "#8d9fa6",
]


def render_gantt_svg(graph: TaskGraph, trace: ScheduleTrace, width: int = 960) -> str:
    """One row per thread, a rectangle per executed segment colored by
    task label, and a black tick at every spawn event.  A trace that does
    not fit the graph raises TraceMismatchError."""
    _check(graph, trace)
    row_height = 28
    margin_left = 70
    margin_top = 24
    axis_height = 22
    threads = trace.thread_count
    span = max(trace.makespan, 1)
    scale = (width - margin_left - 10) / span
    height = margin_top + threads * row_height + axis_height

    labels = sorted({spec.label for spec in graph.tasks})
    color_of = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}
    fills = [color_of[spec.label] for spec in graph.tasks]
    segment_svg = {
        kind: '<rect class="seg" x="%.2f" y="%d" width="%.2f" '
        f'height="{row_height - 10}" fill="%s" fill-opacity="{opacity}">'
        f"<title>task %d [%d,%d) {kind.value}</title></rect>"
        for kind, opacity in (
            (SegmentKind.COMPUTE, "1.0"),
            (SegmentKind.POLL_SPIN, "0.45"),
            (SegmentKind.UNDEFERRED, "1.0"),
        )
    }

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for t in range(threads):
        y = margin_top + t * row_height
        parts.append(f'<text x="4" y="{y + row_height * 0.65:.1f}">thread {t}</text>')
        parts.append(
            f'<line x1="{margin_left}" y1="{y + row_height - 4}" '
            f'x2="{width - 10}" y2="{y + row_height - 4}" stroke="#ddd"/>'
        )
    parts += [
        segment_svg[kind]
        % (
            margin_left + start * scale,
            margin_top + thread * row_height + 3,
            max((end - start) * scale, 0.5),
            fills[task],
            task,
            start,
            end,
        )
        for thread, task, start, end, kind in trace.segments
    ]
    for time, kind, _, thread in trace.events:
        if kind is EventKind.SPAWNED:
            x = margin_left + time * scale
            y = margin_top + thread * row_height
            parts.append(
                f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" '
                f'y2="{y + row_height - 6}" stroke="black" stroke-width="1"/>'
            )
    axis_y = margin_top + threads * row_height + 12
    parts.append(
        f'<text x="{margin_left}" y="{axis_y}">0</text>'
        f'<text x="{width - 60}" y="{axis_y}">{trace.makespan}</text>'
    )
    legend_x = margin_left
    for label in labels:
        parts.append(
            f'<rect x="{legend_x}" y="{height - 10}" width="8" height="8" '
            f'fill="{color_of[label]}"/>'
            f'<text x="{legend_x + 12}" y="{height - 2}">{(label or "(none)").translate(_XML_TEXT)}</text>'
        )
        legend_x += 12 + 8 * max(len(label), 6)
    parts.append("</svg>")
    return "\n".join(parts)


def report_to_json(report: AnalysisReport | ComparisonReport, meta: dict | None = None) -> str:
    """The report's ``to_dict()`` as indented JSON, after a ``meta``
    header when one is given."""
    data = {}
    if meta:
        data["meta"] = dict(meta)
    data.update(report.to_dict())
    return json.dumps(data, indent=2)
