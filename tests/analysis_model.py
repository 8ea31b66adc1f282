"""Per-call analysis model: ``_untrusted``, ``analyze`` and ``validate_trace``
as they were before the per-trace facts, kept only as a test oracle.

Each call rescans the whole trace and reads every record by name, so its
results do not depend on anything cached on the trace.
"""

from fractions import Fraction

from schedsim.analysis import DRIVER_LABEL, SECOND_GROUP_LABEL, AnalysisReport
from schedsim.engine import MAX_THREADS, EventKind, Outcome, SegmentKind
from schedsim.task_graph import Compute, Violation, critical_path, spawn_parents, total_work


class ModelMismatch(Exception):
    pass


def untrusted(graph, trace):
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


def analyze(graph, trace):
    found = untrusted(graph, trace)
    if found:
        raise ModelMismatch(found[0][2])
    cp_length, cp_tasks = critical_path(graph)
    cp_set = set(cp_tasks)
    parents = spawn_parents(graph)

    compute_ticks = 0
    spin_ticks = 0
    busy = [0] * trace.thread_count
    undeferred_on_cp = 0
    for seg in trace.segments:
        length = seg.end - seg.start
        busy[seg.thread] += length
        if seg.kind is SegmentKind.POLL_SPIN:
            spin_ticks += length
            continue
        compute_ticks += length
        if seg.kind is SegmentKind.UNDEFERRED:
            parent = parents.get(seg.task)
            if parent is not None and parent[0] in cp_set:
                undeferred_on_cp += 1

    makespan = trace.makespan
    if makespan > 0:
        occupancy = Fraction(compute_ticks, makespan * trace.thread_count)
        per_thread = tuple(Fraction(b, makespan) for b in busy)
    else:
        occupancy = Fraction(0)
        per_thread = tuple(Fraction(0) for _ in busy)

    return AnalysisReport(
        makespan=makespan,
        critical_path_length=cp_length,
        occupancy=occupancy,
        per_thread_busy=per_thread,
        throttled_spawns=sum(1 for e in trace.events if e.kind is EventKind.THROTTLED),
        undeferred_on_critical_path=undeferred_on_cp,
        group_start_latency=_group_start_latency(graph, trace),
        starvation=trace.outcome is Outcome.STARVATION_DETECTED,
        poll_spin_ticks=spin_ticks,
    )


def _group_start_latency(graph, trace):
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


def validate_trace(graph, trace):
    violations = [Violation(violation, ident) for violation, ident, _ in untrusted(graph, trace)]
    if violations:
        return violations

    per_thread = {}
    for seg in trace.segments:
        per_thread.setdefault(seg.thread, []).append(seg)
    for thread, segs in sorted(per_thread.items()):
        segs = sorted(segs, key=lambda s: (s.start, s.end))
        for prev, cur in zip(segs, segs[1:]):
            if cur.start < prev.end:
                violations.append(Violation("OverlappingSegments", thread))
                break

    completions = {}
    for event in trace.events:
        if event.kind is EventKind.COMPLETED:
            completions[event.task] = completions.get(event.task, 0) + 1
    for task, count in sorted(completions.items()):
        if count > 1:
            violations.append(Violation("DuplicateCompletion", task))

    if trace.outcome is Outcome.COMPLETED:
        expected = {}
        for spec in graph.tasks:
            expected[spec.id] = sum(a.duration for a in spec.actions if isinstance(a, Compute))
        executed = {task_id: 0 for task_id in expected}
        for seg in trace.segments:
            if seg.kind is not SegmentKind.POLL_SPIN:
                executed[seg.task] += seg.end - seg.start
        for task_id in sorted(expected):
            if executed[task_id] != expected[task_id]:
                violations.append(Violation("WorkNotConserved", task_id))
        for task_id in sorted(expected):
            if completions.get(task_id, 0) != 1:
                violations.append(Violation("MissingCompletion", task_id))

        cp_length, _ = critical_path(graph)
        if trace.makespan < cp_length:
            violations.append(Violation("MakespanBelowCriticalPath", -1))
        threads_used = {seg.thread for seg in trace.segments}
        if threads_used:
            bound = -(-total_work(graph) // max(len(threads_used), 1))
            if trace.makespan < bound:
                violations.append(Violation("MakespanBelowWorkBound", -1))

    tied_thread = {}
    for seg in trace.segments:
        if graph.task(seg.task).tied:
            home = tied_thread.setdefault(seg.task, seg.thread)
            if home != seg.thread:
                violations.append(Violation("TiedTaskMigrated", seg.task))

    return violations
