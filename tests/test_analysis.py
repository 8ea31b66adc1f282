import xml.dom.minidom
from fractions import Fraction

import pytest

from schedsim import analysis, trace as trace_mod
from schedsim import policies as pol
from schedsim.analysis import (
    TraceMismatchError,
    analyze,
    compare,
    makespan_reduction,
    render_gantt_svg,
    validate_trace,
)
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
from schedsim.generators import (
    EnclaveWorkloadParams,
    gen_enclave_pattern,
    gen_two_timestep_pattern,
)
from schedsim.task_graph import (
    Compute,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskwaitChildren,
    WaitMode,
)


def single_task_graph(cost=10):
    return TaskGraph(tasks=(TaskSpec(id=0, actions=(Compute(cost),)),), roots=(0,))


def two_task_graph():
    return TaskGraph(
        tasks=(
            TaskSpec(id=0, actions=(Compute(10),)),
            TaskSpec(id=1, actions=(Compute(10),)),
        ),
        roots=(0, 1),
    )


def run(graph, threads=1, policy=None):
    return simulate(graph, SimConfig(thread_count=threads, policy=policy or pol.reference()))


class TestAnalyze:
    def test_single_thread_full_occupancy(self):
        g = single_task_graph()
        report = analyze(g, run(g))
        assert report.makespan == 10
        assert report.occupancy == Fraction(1)
        assert report.per_thread_busy == (Fraction(1),)

    def test_parallel_vs_serial_occupancy(self):
        g = two_task_graph()
        parallel = analyze(g, run(g, threads=2))
        assert parallel.occupancy == Fraction(1)
        # same 20 ticks of work forced onto one of two threads: 0.5
        from schedsim.task_graph import DeferMode

        serial_graph = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(10), Spawn(1, DeferMode.UNDEFERRED))),
                TaskSpec(id=1, actions=(Compute(10),)),
            ),
            roots=(0,),
        )
        serial = analyze(serial_graph, run(serial_graph, threads=2))
        assert serial.makespan == 20
        assert serial.occupancy == Fraction(1, 2)

    def test_occupancy_identity_is_exact(self):
        g = two_task_graph()
        trace = run(g, threads=2)
        report = analyze(g, trace)
        assert report.occupancy * trace.makespan * trace.thread_count == 20

    def test_throttled_workload_metrics(self):
        # small throttling instance: queue bound 2, 6 enclaves, 2 threads
        params = EnclaveWorkloadParams(
            K=2,
            timesteps=1,
            enclaves_per_traversal=(6, 0),
            traversal_cell_cost=10,
            enclave_cost_range=(4, 4),
            cells_per_traversal=(2, 1),
            seed=42,
        )
        g = gen_enclave_pattern(params)
        trace = run(g, threads=2, policy=pol.reference(queue_bound=2))
        report = analyze(g, trace)
        assert report.throttled_spawns > 0
        assert report.undeferred_on_critical_path > 0

    def test_group_start_latency_zero_without_labels(self):
        g = single_task_graph()
        assert analyze(g, run(g)).group_start_latency == 0

    def test_group_start_latency_on_two_timestep_graph(self):
        g = gen_two_timestep_pattern(
            K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.THROUGHPUT
        )
        report = analyze(g, run(g, threads=4, policy=pol.reference()))
        assert report.group_start_latency == 25

    def test_mismatched_trace_rejected(self):
        g = single_task_graph()
        trace = run(two_task_graph(), threads=2)
        with pytest.raises(TraceMismatchError):
            analyze(g, trace)


class TestCompare:
    def test_identical_traces_zero(self):
        g = single_task_graph()
        trace = run(g)
        assert compare(g, trace, trace).reduction_percent == 0

    def test_43_percent(self):
        report_graph = single_task_graph(100)
        baseline = run(report_graph)
        variant_graph = single_task_graph(57)
        variant = run(variant_graph)
        # same arithmetic as the headline comparison: 100 -> 57 is a 43% cut
        assert 100 * Fraction(baseline.makespan - variant.makespan, baseline.makespan) == 43
        report = compare(report_graph, baseline, baseline)
        assert report.reduction_percent == 0

    def test_4_7_percent(self):
        assert 100 * Fraction(1000 - 953, 1000) == Fraction(47, 10)

    def test_makespan_reduction(self):
        # the flaw scenarios' throttling line: 844 -> 800 prints 5.21%
        assert makespan_reduction(844, 800) == Fraction(1100, 211)
        assert makespan_reduction(800, 844) == Fraction(-11, 2)
        assert makespan_reduction(0, 5) == 0

    def test_sign_antisymmetry(self):
        g = two_task_graph()
        fast = run(g, threads=2)
        slow = run(g, threads=1)
        forward = compare(g, slow, fast).reduction_percent
        backward = compare(g, fast, slow).reduction_percent
        assert forward > 0 and backward < 0


class TestValidateTrace:
    def test_engine_trace_is_clean(self):
        g = two_task_graph()
        assert validate_trace(g, run(g, threads=2)) == []

    def test_overlap_detected(self):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=1,
            segments=(
                Segment(0, 0, 0, 6, SegmentKind.COMPUTE),
                Segment(0, 0, 4, 10, SegmentKind.COMPUTE),
            ),
            events=(TraceEvent(10, EventKind.COMPLETED, 0, 0),),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        kinds = [(v.kind, v.task) for v in validate_trace(g, trace)]
        assert ("OverlappingSegments", 0) in kinds

    def test_work_not_conserved_detected(self):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=1,
            segments=(Segment(0, 0, 0, 4, SegmentKind.COMPUTE),),
            events=(TraceEvent(4, EventKind.COMPLETED, 0, 0),),
            makespan=4,
            outcome=Outcome.COMPLETED,
        )
        kinds = [(v.kind, v.task) for v in validate_trace(g, trace)]
        assert ("WorkNotConserved", 0) in kinds

    def test_tied_migration_detected(self):
        g = TaskGraph(
            tasks=(TaskSpec(id=0, actions=(Compute(4), Compute(4)), tied=True),),
            roots=(0,),
        )
        trace = ScheduleTrace(
            thread_count=2,
            segments=(
                Segment(0, 0, 0, 4, SegmentKind.COMPUTE),
                Segment(1, 0, 4, 8, SegmentKind.COMPUTE),
            ),
            events=(TraceEvent(8, EventKind.COMPLETED, 0, 0),),
            makespan=8,
            outcome=Outcome.COMPLETED,
        )
        kinds = [(v.kind, v.task) for v in validate_trace(g, trace)]
        assert ("TiedTaskMigrated", 0) in kinds

    def test_missing_completion_detected(self):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=1,
            segments=(Segment(0, 0, 0, 10, SegmentKind.COMPUTE),),
            events=(),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        kinds = [v.kind for v in validate_trace(g, trace)]
        assert "MissingCompletion" in kinds

    def test_unknown_task_reported_not_raised(self):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=1,
            segments=(Segment(0, 5, 0, 10, SegmentKind.COMPUTE),),
            events=(),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        kinds = [v.kind for v in validate_trace(g, trace)]
        assert kinds == ["UnknownTask"]

    def test_unknown_thread_reported_not_raised(self):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=2,
            segments=(Segment(2, 0, 0, 10, SegmentKind.COMPUTE),),
            events=(TraceEvent(10, EventKind.COMPLETED, 0, -1),),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        found = [(v.kind, v.task) for v in validate_trace(g, trace)]
        assert found == [("UnknownThread", 2), ("UnknownThread", -1)]
        with pytest.raises(TraceMismatchError, match="segment references unknown thread 2"):
            analyze(g, trace)

    @pytest.mark.parametrize(
        "thread_count, segment, event_time, found, message",
        [
            (0, None, None, [("NoThreads", 0)], "trace has thread_count 0"),
            (1, (10, 0), 10, [("EmptySegment", 0)], "segment of task 0 does not end after"),
            (1, (0, 11), 10, [("OutsideMakespan", 0)], "segment of task 0 lies outside"),
            (1, (-1, 9), 10, [("OutsideMakespan", 0)], "segment of task 0 lies outside"),
            (1, (0, 10), 11, [("OutsideMakespan", 0)], "event of task 0 lies outside"),
            (10**30, None, None, [("TooManyThreads", 10**30)], f"trace has thread_count {10**30} > {MAX_THREADS}"),
        ],
    )
    def test_untrusted_bounds_reported_not_raised(
        self, thread_count, segment, event_time, found, message
    ):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=thread_count,
            segments=() if segment is None else (Segment(0, 0, *segment, SegmentKind.COMPUTE),),
            events=() if event_time is None else (TraceEvent(event_time, EventKind.COMPLETED, 0, 0),),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        assert [(v.kind, v.task) for v in validate_trace(g, trace)] == found
        with pytest.raises(TraceMismatchError, match=message):
            analyze(g, trace)


class TestRendering:
    def test_svg_has_one_row_per_thread(self):
        g = gen_two_timestep_pattern(
            K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.THROUGHPUT
        )
        trace = run(g, threads=4, policy=pol.reference())
        svg = render_gantt_svg(g, trace)
        assert svg.count("<text x=\"4\"") == 4  # thread labels
        assert svg.count('class="seg"') == len(trace.segments)
        assert "<svg" in svg and "</svg>" in svg

    def test_spawn_ticks_rendered(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(1), Spawn(1), TaskwaitChildren())),
                TaskSpec(id=1, actions=(Compute(2),)),
            ),
            roots=(0,),
        )
        trace = run(g, threads=2)
        svg = render_gantt_svg(g, trace)
        assert 'stroke="black"' in svg

    def test_labels_are_escaped(self):
        labels = ("R&D <hot>", "a\x01b\x1f", "c\ud800\uffff")
        g = TaskGraph(
            tasks=tuple(TaskSpec(id=i, actions=(Compute(3),), label=label) for i, label in enumerate(labels)),
            roots=(0, 1, 2),
        )
        svg = xml.dom.minidom.parseString(render_gantt_svg(g, run(g)).encode())
        legend = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert {"R&D <hot>", "a\ufffdb\ufffd", "c\ufffd\ufffd"} <= set(legend)

    def test_report_text_rendering(self):
        g = single_task_graph()
        report = analyze(g, run(g))
        text = report.to_text()
        assert "makespan" in text and "occupancy" in text

    def test_zero_makespan_report_has_zero_occupancy(self):
        g = TaskGraph((), ())
        trace = run(g, threads=2)
        assert trace.makespan == 0
        data = analyze(g, trace).to_dict()
        assert data["occupancy"] == "0"
        assert data["per_thread_busy"] == ["0", "0"]

    def test_report_dict_round_trips_fractions_as_strings(self):
        g = single_task_graph()
        report = analyze(g, run(g))
        data = report.to_dict()
        assert data["occupancy"] == "1"
        assert isinstance(data["per_thread_busy"][0], str)


class TestRenderingTrustGate:
    """The SVG reads the trace's task and thread ids as indices: a trace
    that does not fit the graph is rejected before any row is drawn."""

    @pytest.mark.parametrize(
        "thread_count, task, message",
        [
            (1, -1, "segment references unknown task -1"),
            (1, 1, "segment references unknown task 1"),
            (10**30, 0, f"trace has thread_count {10**30} > {MAX_THREADS}"),
        ],
    )
    def test_untrusted_trace_rejected(self, thread_count, task, message):
        g = single_task_graph()
        trace = ScheduleTrace(
            thread_count=thread_count,
            segments=(Segment(0, task, 0, 10, SegmentKind.COMPUTE),),
            events=(TraceEvent(10, EventKind.COMPLETED, 0, 0),),
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        with pytest.raises(TraceMismatchError, match=message):
            render_gantt_svg(g, trace)


class TestPerTraceCache:
    """Facts about a trace are computed once and kept outside its fields."""

    def analysed(self):
        g = two_task_graph()
        trace = run(g, threads=2)
        before = (trace.to_json(), repr(trace), hash(trace))
        assert validate_trace(g, trace) == []
        analyze(g, trace)
        render_gantt_svg(g, trace)
        return g, trace, before

    def test_facts_do_not_change_identity_or_bytes(self):
        g, trace, before = self.analysed()
        assert "_facts" in trace.__dict__ and "_bounds" in trace.__dict__
        assert (trace.to_json(), repr(trace), hash(trace)) == before
        fresh = run(g, threads=2)
        assert "_facts" not in fresh.__dict__
        assert fresh == trace and hash(fresh) == hash(trace)
        back = ScheduleTrace.from_json(trace.to_json())
        assert back == trace and back.to_json() == before[0]

    def test_records_are_stored_as_tuples(self):
        trace = ScheduleTrace(
            thread_count=1,
            segments=[Segment(0, 0, 0, 10, SegmentKind.COMPUTE)],
            events=[TraceEvent(10, EventKind.COMPLETED, 0, 0)],
            makespan=10,
            outcome=Outcome.COMPLETED,
        )
        assert type(trace.segments) is tuple and type(trace.events) is tuple
        assert validate_trace(single_task_graph(), trace) == []

    def test_compare_builds_one_fact_set_per_trace(self, monkeypatch):
        built = []
        build = trace_mod._trace_facts
        monkeypatch.setattr(trace_mod, "_trace_facts", lambda trace: built.append(trace) or build(trace))
        g = gen_enclave_pattern(
            EnclaveWorkloadParams(
                K=2, timesteps=1, enclaves_per_traversal=(6, 2), traversal_cell_cost=1,
                enclave_cost_range=(1, 3), cells_per_traversal=(4, 4), seed=3,
            )
        )
        baseline = run(g, threads=2)
        variants = [
            run(g, threads=2, policy=pol.fcfs()),
            run(g, threads=3),
            run(g, threads=2, policy=pol.extended()),
        ]
        for variant in variants:
            compare(g, baseline, variant)
        assert [id(trace) for trace in built] == [id(t) for t in [baseline, *variants]]

    def test_valid_traces_skip_the_ordered_scan(self, monkeypatch):
        scans = []
        scan = analysis._defects
        monkeypatch.setattr(analysis, "_defects", lambda g, t: scans.append(t) or scan(g, t))
        g, trace, _ = self.analysed()
        compare(g, trace, trace)
        assert scans == []
        bad = ScheduleTrace(1, (Segment(0, 5, 0, 10, SegmentKind.COMPUTE),), (), 10, Outcome.COMPLETED)
        assert [v.kind for v in validate_trace(g, bad)] == ["UnknownTask"]
        assert scans == [bad]
