"""Acceptance criteria for the scheduling simulator.

Each test prints one PASS/FAIL line (run with ``pytest -s``).  Expected
values are frozen from independent oracles: hand-stepped schedules for
the small instances, closed-form arithmetic for the comparisons.  All
quantities are integers or exact fractions, so every tolerance is exact.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from schedsim import policies as pol
from schedsim.analysis import analyze, compare, validate_trace
from schedsim.engine import EventKind, Outcome, SegmentKind, SimConfig, simulate
from schedsim.generators import (
    EnclaveWorkloadParams,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
    gen_two_timestep_pattern,
)
from schedsim.prng import SplitMix64
from schedsim.task_graph import (
    DeferMode,
    WaitMode,
    critical_path,
    total_work,
    validate,
)

from graph_draws import sample_graph


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def completion_time(trace, task):
    return next(
        e.time for e in trace.events if e.kind is EventKind.COMPLETED and e.task == task
    )


def first_starts(trace, task_ids):
    starts = {}
    for seg in trace.segments:
        if seg.task in task_ids and seg.task not in starts:
            starts[seg.task] = seg.start
    return starts


# --- A1: task throttling ---------------------------------------------------


def big_throttle_params(defer=DeferMode.RUNTIME_CHOICE):
    # One producer spawns 300 enclaves over its first 300 cells and then
    # sweeps 500 more; the three consumers stay busy past the producer's
    # spawn window so nothing is stolen before the queue bound bites.
    return EnclaveWorkloadParams(
        K=4,
        timesteps=1,
        enclaves_per_traversal=(300, 10, 10, 10),
        traversal_cell_cost=1,
        enclave_cost_range=(1, 1),
        cells_per_traversal=(800, 360, 360, 360),
        seed=7,
        defer_mode=defer,
    )


def shrunk_throttle_graph():
    # Calibration instance: 2 threads, queue bound 2, 6 enclaves of cost 4.
    # Producer: [C10, Se0, Se1, Se2, C10, Se3, Se4, Se5, TW]; peer: [C10, TW].
    return gen_enclave_pattern(
        EnclaveWorkloadParams(
            K=2,
            timesteps=1,
            enclaves_per_traversal=(6, 0),
            traversal_cell_cost=10,
            enclave_cost_range=(4, 4),
            cells_per_traversal=(2, 1),
            seed=42,
        )
    )


def test_a1_throttling_flaw():
    started = time.time()
    with criterion("A1 throttling flaw (queue bound vs unbounded/deferred)"):
        graph = gen_enclave_pattern(big_throttle_params())
        bounded = simulate(graph, SimConfig(thread_count=4, policy=pol.reference(queue_bound=256)))
        unbounded = simulate(graph, SimConfig(thread_count=4, policy=pol.reference(queue_bound=None)))
        bounded_report = analyze(graph, bounded)
        assert bounded_report.throttled_spawns >= 44
        assert bounded_report.undeferred_on_critical_path > 0
        assert unbounded.makespan < bounded.makespan
        assert analyze(graph, unbounded).throttled_spawns == 0

        deferred_graph = gen_enclave_pattern(big_throttle_params(DeferMode.MUST_DEFER))
        extended = simulate(
            deferred_graph, SimConfig(thread_count=4, policy=pol.extended(queue_bound=256))
        )
        assert extended.makespan < bounded.makespan
        assert analyze(deferred_graph, extended).throttled_spawns == 0

        # Shrunk instance against the hand-stepped oracle.  Bound 2:
        #   [0,10)  both traversals sweep their first cell
        #   t=10    producer enqueues e0,e1; e2 finds the queue full and runs
        #           inline [10,14); the idle peer steals e0 [10,14), e1 [14,18)
        #   [14,24) producer's second cell
        #   t=24    e3,e4 enqueue, e5 runs inline [24,28); peer steals e3
        #           [24,28) and e4 [28,32); the trailing wait resolves at 32
        shrunk = shrunk_throttle_graph()
        producer, peer = 6, 7
        ref = simulate(shrunk, SimConfig(thread_count=2, policy=pol.reference(queue_bound=2)))
        expected_reference_schedule = [
            (0, producer, 0, 10, SegmentKind.COMPUTE),
            (1, peer, 0, 10, SegmentKind.COMPUTE),
            (0, 2, 10, 14, SegmentKind.UNDEFERRED),
            (1, 0, 10, 14, SegmentKind.COMPUTE),
            (1, 1, 14, 18, SegmentKind.COMPUTE),
            (0, producer, 14, 24, SegmentKind.COMPUTE),
            (0, 5, 24, 28, SegmentKind.UNDEFERRED),
            (1, 3, 24, 28, SegmentKind.COMPUTE),
            (1, 4, 28, 32, SegmentKind.COMPUTE),
        ]
        got = [(s.thread, s.task, s.start, s.end, s.kind) for s in ref.segments]
        assert got == expected_reference_schedule
        assert ref.makespan == 32
        ref_report = analyze(shrunk, ref)
        assert ref_report.throttled_spawns == 2
        assert ref_report.undeferred_on_critical_path == 2

        # Unbounded: producer sweeps [0,20) while the peer drains e0..e2 from
        # t=10; the trailing wait drains the rest (producer pops e5,e4; peer
        # steals e3); everything completes at 28.
        unb = simulate(shrunk, SimConfig(thread_count=2, policy=pol.reference(queue_bound=None)))
        assert unb.makespan == 28
        assert analyze(shrunk, unb).throttled_spawns == 0

        assert time.time() - started < 5.0


# --- A2: nested parallelism ---------------------------------------------------


def test_a2_nested_parallelism_gain():
    with criterion("A2 nested-parallelism gain (serialized vs scattered chunks)"):
        graph = gen_nested_loop_pattern(
            NestedLoopParams(
                K=4,
                loop_chunks=4,
                chunk_cost=10,
                loop_on_critical_task_only=True,
                serial_prefix_cost=5,
                serial_suffix_cost=5,
                chunk_priority=0,
            )
        )
        critical = graph.roots[0]
        reference = simulate(graph, SimConfig(thread_count=4, policy=pol.reference()))
        extended = simulate(graph, SimConfig(thread_count=4, policy=pol.extended()))

        # Serialized: prefix [0,5), four chunks back to back [5,45), suffix
        # [45,50) -> the critical task spans 50 ticks.
        assert completion_time(reference, critical) == 50
        # Scattered: every chunk runs [5,15) on its own thread, suffix
        # [15,20) -> span 20.
        assert completion_time(extended, critical) == 20
        chunk_ids = {t.id for t in graph.tasks if t.label == "loop-chunk"}
        chunk_segs = [s for s in extended.segments if s.task in chunk_ids]
        assert {(s.start, s.end) for s in chunk_segs} == {(5, 15)}
        assert len({s.thread for s in chunk_segs}) == 4

        # Whole-graph oracle: the three peers hold 7 blockers of 5 ticks
        # each.  Reference: peers run them back to back [0,35) and the
        # critical thread alone spans 50 -> makespan 50.  Extended: one
        # blocker per peer before the chunks, 18 blockers remain at t=15;
        # three threads resume at 15 and the critical thread joins at 20,
        # so the tail is 15+5k boundaries: 3 blockers [15,20), then 4 per
        # 5-tick wave -> last wave [35,40) -> makespan 40.
        assert reference.makespan == 50
        assert extended.makespan == 40
        report = compare(graph, reference, extended)
        assert report.reduction_percent == Fraction(20)


# --- A3: starvation and fair yield ---------------------------------------------


def test_a3_starvation_and_fair_yield():
    with criterion("A3 starvation under default yields, progress under fair yields"):
        graph = gen_starvation_pattern(
            StarvationParams(T=2, C=4, E=2, poll_cost=1, enclave_cost=5, seed=1)
        )
        reference = simulate(graph, SimConfig(thread_count=2, policy=pol.reference()))
        assert reference.outcome is Outcome.STARVATION_DETECTED
        enclave_ids = {t.id for t in graph.tasks if t.label == "enclave"}
        assert not any(s.task in enclave_ids for s in reference.segments)

        extended = simulate(graph, SimConfig(thread_count=2, policy=pol.extended()))
        assert extended.outcome is Outcome.COMPLETED
        runs = [e for e in extended.events if e.kind is EventKind.COMPLETED and e.task in enclave_ids]
        assert len(runs) == len(enclave_ids)
        # hand-stepped: consumers spin [0,1) and [1,2), fair yields push them
        # below the enclaves, enclaves run [2,7), pollers pass at 7
        assert extended.makespan == 7


# --- A4: taskwait latency ---------------------------------------------------


def test_a4_taskwait_latency():
    with criterion("A4 taskwait latency (throughput waits delay the next group)"):
        throughput_graph = gen_two_timestep_pattern(
            K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.THROUGHPUT
        )
        latency_graph = gen_two_timestep_pattern(
            K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.LATENCY
        )
        group2 = {t.id for t in throughput_graph.tasks if t.label == "traversal-g2"}

        baseline = simulate(throughput_graph, SimConfig(thread_count=4, policy=pol.reference()))
        base_report = analyze(throughput_graph, baseline)
        starts = first_starts(baseline, group2)
        gate = next(
            e.time
            for e in baseline.events
            if e.kind is EventKind.WAIT_EXITED and throughput_graph.task(e.task).label == "driver"
        )
        # hand-stepped: wait exits at 10; the waiting thread alone chews the
        # second group (starts 10, 20, 30) until a peer frees up at 35
        assert gate == 10
        assert sorted(starts.values()) == [10, 20, 30, 35]
        assert sum(1 for s in starts.values() if s == gate) == 1
        assert base_report.group_start_latency == 25
        assert baseline.makespan == 60

        variant = simulate(latency_graph, SimConfig(thread_count=4, policy=pol.extended()))
        var_report = analyze(latency_graph, variant)
        var_starts = first_starts(variant, group2)
        # hand-stepped: all four group-2 traversals start at the wait exit,
        # enclaves follow [20,45)
        assert sorted(var_starts.values()) == [10, 10, 10, 10]
        assert var_report.group_start_latency == 0
        assert variant.makespan == 45
        assert variant.makespan < baseline.makespan


# --- A5: randomized invariant suite ---------------------------------------------


def test_a5_randomized_invariant_suite():
    started = time.time()
    with criterion("A5 invariants over 1000 seeded graphs x 3 policies"):
        rng = SplitMix64(20240601)
        policies = (pol.reference(), pol.fcfs(), pol.extended())
        for index in range(1000):
            graph = sample_graph(rng)
            assert validate(graph) == []
            threads = 1 + index % 4
            cp_length = critical_path(graph)[0]
            work = total_work(graph)
            for policy in policies:
                cfg = SimConfig(thread_count=threads, policy=policy)
                trace = simulate(graph, cfg)
                again = simulate(graph, cfg)
                assert trace.to_json() == again.to_json()
                assert validate_trace(graph, trace) == []
                if trace.outcome is Outcome.COMPLETED:
                    assert trace.makespan >= cp_length
                    assert trace.makespan >= -(-work // threads)
            throttled = []
            for bound in (2, 16, 256, None):
                trace = simulate(
                    graph,
                    SimConfig(thread_count=threads, policy=pol.reference(queue_bound=bound)),
                )
                throttled.append(
                    sum(1 for e in trace.events if e.kind is EventKind.THROTTLED)
                )
            assert throttled == sorted(throttled, reverse=True)
            assert throttled[-1] == 0
        elapsed = time.time() - started
        assert elapsed < 60.0


# --- A6: global FCFS idealization ---------------------------------------------


def test_a6_fcfs_idealization():
    with criterion("A6 FCFS with ample threads reaches the critical path exactly"):
        rng = SplitMix64(77)
        for _ in range(300):
            graph = sample_graph(rng)
            threads = max(len(graph.tasks), 1)
            trace = simulate(graph, SimConfig(thread_count=threads, policy=pol.fcfs()))
            assert trace.outcome is Outcome.COMPLETED
            assert trace.makespan == critical_path(graph)[0]
