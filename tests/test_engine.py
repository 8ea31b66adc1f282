import pytest

from schedsim import engine, policies as pol
from schedsim.analysis import validate_trace
from schedsim.engine import (
    MAX_THREADS,
    _Engine,
    EventKind,
    Outcome,
    ScheduleTrace,
    Segment,
    SegmentKind,
    SimConfig,
    InvalidGraphError,
    TraceEvent,
    simulate,
)
from schedsim.policies import ConfigError
from schedsim.prng import SplitMix64
from schedsim.task_graph import (
    Compute,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskgroupEnd,
    TaskwaitChildren,
    WaitMode,
    YieldMode,
    wait_members,
)

from graph_draws import spawn_chain, tied_forest


POLICIES = [pol.reference(), pol.fcfs(), pol.extended()]
POLICY_IDS = ["reference", "fcfs", "extended"]


def single_task_graph():
    return TaskGraph(tasks=(TaskSpec(id=0, actions=(Compute(10),)),), roots=(0,))


def fork_join_graph():
    return TaskGraph(
        tasks=(
            TaskSpec(id=0, actions=(Compute(1), Spawn(1), Spawn(2), TaskwaitChildren())),
            TaskSpec(id=1, actions=(Compute(5),)),
            TaskSpec(id=2, actions=(Compute(5),)),
        ),
        roots=(0,),
    )


class TestBasics:
    def test_single_task_single_thread(self):
        trace = simulate(single_task_graph(), SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.makespan == 10
        assert trace.outcome is Outcome.COMPLETED
        assert [(s.thread, s.task, s.start, s.end) for s in trace.segments] == [(0, 0, 0, 10)]

    def test_children_run_concurrently_on_idle_threads(self):
        # hand-stepped: spawns at t=1, both children over [1,6), makespan 6
        trace = simulate(fork_join_graph(), SimConfig(thread_count=4, policy=pol.reference()))
        assert trace.makespan == 6
        child_segments = {(s.task, s.start, s.end) for s in trace.segments if s.task != 0}
        assert child_segments == {(1, 1, 6), (2, 1, 6)}
        assert sum(1 for e in trace.events if e.kind is EventKind.STOLEN) == 2

    def test_invalid_graph_rejected(self):
        bad = TaskGraph(tasks=(TaskSpec(id=0, actions=(Spawn(0),)),), roots=(0,))
        with pytest.raises(InvalidGraphError):
            simulate(bad, SimConfig(thread_count=1, policy=pol.reference()))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(thread_count=0, policy=pol.reference())
        with pytest.raises(ConfigError):
            SimConfig(thread_count=1, policy=pol.reference(), max_virtual_time=0)
        with pytest.raises(ConfigError, match="thread_count"):
            SimConfig(thread_count=MAX_THREADS + 1, policy=pol.reference())
        assert SimConfig(thread_count=MAX_THREADS, policy=pol.reference()).thread_count == MAX_THREADS

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_config_counts_take_exact_ints(self, value):
        with pytest.raises(ConfigError, match="thread_count"):
            SimConfig(thread_count=value, policy=pol.reference())
        with pytest.raises(ConfigError, match="max_virtual_time"):
            SimConfig(thread_count=1, policy=pol.reference(), max_virtual_time=value)

    def test_determinism_bit_identical(self):
        cfg = SimConfig(thread_count=3, policy=pol.extended())
        first = simulate(fork_join_graph(), cfg)
        second = simulate(fork_join_graph(), cfg)
        assert first.to_json() == second.to_json()

    def test_time_limit_exceeded(self):
        trace = simulate(
            single_task_graph(),
            SimConfig(thread_count=1, policy=pol.reference(), max_virtual_time=5),
        )
        assert trace.outcome is Outcome.TIME_LIMIT_EXCEEDED


class TestUndeferred:
    def nested_graph(self):
        return TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(2), Spawn(1, DeferMode.UNDEFERRED), Compute(3))),
                TaskSpec(id=1, actions=(Compute(4),)),
            ),
            roots=(0,),
        )

    def test_child_runs_inline(self):
        trace = simulate(self.nested_graph(), SimConfig(thread_count=2, policy=pol.reference()))
        segs = [(s.task, s.start, s.end, s.kind) for s in trace.segments]
        assert segs == [
            (0, 0, 2, SegmentKind.COMPUTE),
            (1, 2, 6, SegmentKind.UNDEFERRED),
            (0, 6, 9, SegmentKind.COMPUTE),
        ]
        assert trace.makespan == 9

    def test_requested_undeferred_is_not_throttling(self):
        trace = simulate(self.nested_graph(), SimConfig(thread_count=1, policy=pol.reference()))
        assert not any(e.kind is EventKind.THROTTLED for e in trace.events)

    def test_throttled_spawn_emits_event(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), Spawn(2), Compute(1))),
                TaskSpec(id=1, actions=(Compute(1),)),
                TaskSpec(id=2, actions=(Compute(1),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference(queue_bound=1)))
        throttled = [e.task for e in trace.events if e.kind is EventKind.THROTTLED]
        assert throttled == [2]
        assert trace.outcome is Outcome.COMPLETED


def scattered(trace):
    return [(e.time, e.task, e.thread) for e in trace.events if e.kind is EventKind.SCATTERED]


class TestScatter:
    """Under ``extended`` a placement on another thread's queue is a scatter."""

    def test_must_defer_overflow_goes_to_first_victim_with_space(self):
        # Root 3 fills queue 1 before thread 1 first picks.
        must = DeferMode.MUST_DEFER
        g = TaskGraph(
            tasks=(TaskSpec(0, (Spawn(1, must), Spawn(2, must), Compute(1))),)
            + tuple(TaskSpec(i, (Compute(1),)) for i in (1, 2, 3)),
            roots=(0, 3),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=pol.extended(queue_bound=1)))
        assert scattered(trace) == [(0, 2, 2)]
        assert not any(e.kind is EventKind.THROTTLED for e in trace.events)
        # task 2 waits at MIN_PRIORITY: thread 2 steals task 1 (priority 0) first
        assert TraceEvent(0, EventKind.STOLEN, 1, 2) in trace.events
        assert trace.outcome is Outcome.COMPLETED

    def test_loop_chunks_scatter_one_per_victim_then_stay_local(self):
        # Root 6 (priority 5) is still queued when root 0 issues the burst:
        # every chunk tops it.
        chunks = tuple(TaskSpec(i, (Compute(1),), label=pol.LOOP_CHUNK_LABEL) for i in range(1, 6))
        g = TaskGraph(
            tasks=(TaskSpec(0, tuple(Spawn(c.id) for c in chunks) + (TaskwaitChildren(),), priority=9),)
            + chunks
            + (TaskSpec(6, (Compute(1),), priority=5),),
            roots=(0, 6),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=pol.extended()))
        assert scattered(trace) == [(0, 1, 1), (0, 2, 2)]
        # thread 1 runs chunk 1, and steals chunk 4, ahead of root 6 in its own queue
        assert Segment(1, 1, 0, 1, SegmentKind.COMPUTE) in trace.segments
        stolen = [(e.time, e.task, e.thread) for e in trace.events if e.kind is EventKind.STOLEN]
        assert stolen == [(1, 4, 1), (1, 5, 2), (1, 6, 0)]
        assert trace.outcome is Outcome.COMPLETED


class TestWaits:
    def test_taskgroup_waits_for_descendants(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskgroupEnd(), Compute(2))),
                TaskSpec(id=1, actions=(Compute(1), Spawn(2))),
                TaskSpec(id=2, actions=(Compute(9),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.reference()))
        assert trace.makespan == 12  # 1 + 9 for the grandchild, then the tail

    def test_taskwait_children_excludes_descendants(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskwaitChildren(), Compute(2))),
                TaskSpec(id=1, actions=(Compute(1), Spawn(2))),
                TaskSpec(id=2, actions=(Compute(9),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.reference()))
        root_done = next(e.time for e in trace.events if e.kind is EventKind.COMPLETED and e.task == 0)
        assert root_done == 3
        assert trace.makespan == 10

    def test_latency_wait_never_runs_foreign_tasks(self):
        # the waiting root may help its own child but must not touch the
        # unrelated root while waiting
        from schedsim.task_graph import WaitMode

        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskwaitChildren(WaitMode.LATENCY), Compute(1))),
                TaskSpec(id=1, actions=(Compute(2),)),
                TaskSpec(id=2, actions=(Compute(50),), label="foreign"),
            ),
            roots=(0, 2),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.extended()))
        entered = next(e.time for e in trace.events if e.kind is EventKind.WAIT_ENTERED)
        exited = next(e.time for e in trace.events if e.kind is EventKind.WAIT_EXITED)
        for seg in trace.segments:
            if entered <= seg.start < exited:
                assert seg.task != 2

    def test_latency_group_helps_only_inside_its_subtree(self):
        # Task 1 (priority 9) enters a latency group over child 3.  The
        # helper skips its queued priority-5 sibling 2 for 3 and then for
        # 4, which 3 spawns after the wait was entered; 2 runs only after
        # the group ends.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), Spawn(2), TaskwaitChildren())),
                TaskSpec(id=1, actions=(Compute(1), Spawn(3), TaskgroupEnd(WaitMode.LATENCY), Compute(1)), priority=9),
                TaskSpec(id=2, actions=(Compute(1),), priority=5),
                TaskSpec(id=3, actions=(Compute(1), Spawn(4), Compute(1))),
                TaskSpec(id=4, actions=(Compute(1),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.extended()))
        assert [(s.task, s.start) for s in trace.segments] == [(1, 0), (3, 1), (3, 2), (4, 3), (1, 4), (2, 5)]
        unfiltered = simulate(g, SimConfig(thread_count=1, policy=pol.extended(honor_latency_wait=False)))
        assert [(s.task, s.start) for s in unfiltered.segments][:2] == [(1, 0), (2, 1)]

    def test_nested_latency_waits_intersect_their_sync_sets(self):
        # Thread 0 waits on root 0's children {1}, helps with 1, and 1
        # then waits on its group {2}.  The sync sets do not meet, so
        # thread 0 may not run 2: it waits for thread 1 to finish root 3.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskwaitChildren(WaitMode.LATENCY))),
                TaskSpec(id=1, actions=(Spawn(2), TaskgroupEnd(WaitMode.LATENCY))),
                TaskSpec(id=2, actions=(Compute(1),)),
                TaskSpec(id=3, actions=(Compute(50),)),
            ),
            roots=(0, 3),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.extended()))
        assert [(s.thread, s.task, s.start) for s in trace.segments] == [(1, 3, 0), (1, 2, 50)]

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_completion_on_a_later_thread_releases_an_earlier_waiter(self, policy):
        # Idle thread 1 steals child 1 at 0.  At 5 the settle pass visits
        # waiting thread 0 before thread 1 completes the child, so it takes
        # another pass at 5 for thread 0 to leave its wait.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskwaitChildren(), Compute(1))),
                TaskSpec(id=1, actions=(Compute(5),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=policy))
        assert Segment(1, 1, 0, 5, SegmentKind.COMPUTE) in trace.segments
        assert TraceEvent(5, EventKind.COMPLETED, 1, 1) in trace.events
        assert TraceEvent(5, EventKind.WAIT_EXITED, 0, 0) in trace.events
        assert Segment(0, 0, 5, 6, SegmentKind.COMPUTE) in trace.segments
        assert trace.makespan == 6

    def test_wait_on_no_children_is_instant(self):
        g = TaskGraph(
            tasks=(TaskSpec(id=0, actions=(TaskwaitChildren(), Compute(1))),),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.makespan == 1

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_group_after_a_child_wait_waits_for_the_grandchild(self, policy):
        # Child 1 completes at t=1 while its child 2 runs on to t=10 on a
        # third thread: the child wait exits at 1, the group over the
        # same child only at 10.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), TaskwaitChildren(), TaskgroupEnd(), Compute(1))),
                TaskSpec(id=1, actions=(Spawn(2), Compute(1))),
                TaskSpec(id=2, actions=(Compute(10),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=policy))
        done = {e.task: e.time for e in trace.events if e.kind is EventKind.COMPLETED}
        exits = [e.time for e in trace.events if e.kind is EventKind.WAIT_EXITED]
        assert (done[1], done[2]) == (1, 10)
        assert exits == [1, 10]
        assert trace.makespan == 11

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_child_wait_exits_when_the_last_child_completes(self, policy):
        # the children complete in reverse spawn order
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), Spawn(2), Spawn(3), TaskwaitChildren(), Compute(1))),
                TaskSpec(id=1, actions=(Compute(9),)),
                TaskSpec(id=2, actions=(Compute(5),)),
                TaskSpec(id=3, actions=(Compute(2),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=4, policy=policy))
        assert [(e.time, e.task) for e in trace.events if e.kind is EventKind.COMPLETED] == [
            (2, 3),
            (5, 2),
            (9, 1),
            (10, 0),
        ]
        assert [e.time for e in trace.events if e.kind is EventKind.WAIT_EXITED] == [9]


    @pytest.mark.parametrize(
        "policy, reads", [(pol.reference(), []), (pol.extended(), [(0, 1), (0, 5)])]
    )
    def test_only_latency_waits_read_members(self, monkeypatch, policy, reads):
        # Throughput waits, and latency waits a policy does not honor, are
        # settled by counts alone.
        calls = []

        def counted(spec, idx):
            calls.append((spec.id, idx))
            return wait_members(spec, idx)

        monkeypatch.setattr(engine, "wait_members", counted)
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(
                    Spawn(1), TaskwaitChildren(WaitMode.LATENCY), Spawn(2), TaskwaitChildren(),
                    Spawn(3), TaskgroupEnd(WaitMode.LATENCY),
                )),
                TaskSpec(id=1, actions=(Compute(3),)),
                TaskSpec(id=2, actions=(Compute(3),)),
                TaskSpec(id=3, actions=(Compute(3),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=policy))
        assert trace.outcome is Outcome.COMPLETED
        assert calls == reads


class TestPicks:
    def test_failed_helper_picks_once_another_thread_pushes(self):
        # At t=3 helper thread 0 (root 0 waits on 2) finds only the tied
        # poller 4, started on thread 1.  Helper thread 1 then resumes 4,
        # whose poll now passes and which spawns 6: thread 0 steals 6 at
        # the same timestamp.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(2), Spawn(3), TaskwaitChildren())),
                TaskSpec(id=1, actions=(Spawn(4), Spawn(5), TaskwaitChildren())),
                TaskSpec(id=2, actions=(Compute(10),)),
                TaskSpec(id=3, actions=(Compute(3),)),
                TaskSpec(id=4, actions=(PollOutcome(target=3, poll_cost=0), Spawn(6), Compute(1))),
                TaskSpec(id=5, actions=(Compute(3),)),
                TaskSpec(id=6, actions=(Compute(1),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=pol.extended()))
        assert TraceEvent(3, EventKind.STOLEN, 6, 0) in trace.events
        assert Segment(0, 6, 3, 4, SegmentKind.COMPUTE) in trace.segments
        assert trace.makespan == 10

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_no_pick_while_nothing_is_queued(self, monkeypatch, policy):
        # A spawn chain queues one task at a time, and a thief takes it at
        # once: at most timestamps every queue is empty, and neither the
        # 63 idle threads nor the waiting helpers may try to pick then.
        calls = []  # per pick: was an entry queued, and was a task found?
        pick = pol.ReadyQueues.pick

        def recorded(queues, *args):
            queued = bool(queues.index)
            picked = pick(queues, *args)
            calls.append((queued, picked is not None))
            return picked

        monkeypatch.setattr(pol.ReadyQueues, "pick", recorded)
        g = spawn_chain(64, TaskwaitChildren, SplitMix64(5))
        trace = simulate(g, SimConfig(thread_count=64, policy=policy))
        assert trace.outcome is Outcome.COMPLETED
        assert sum(picked for _, picked in calls) == len(g.tasks)
        assert all(queued for queued, _ in calls)


class TestPolls:
    def test_poll_passes_for_free_when_target_done(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(5), PollOutcome(1, poll_cost=3), Compute(1))),
                TaskSpec(id=1, actions=(Compute(1),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.reference()))
        assert trace.makespan == 6
        assert not any(s.kind is SegmentKind.POLL_SPIN for s in trace.segments)

    def test_spin_truncates_at_target_completion(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, poll_cost=100),)),
                TaskSpec(id=1, actions=(Compute(7),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.reference()))
        spin = next(s for s in trace.segments if s.kind is SegmentKind.POLL_SPIN)
        assert (spin.start, spin.end) == (0, 7)
        assert trace.makespan == 7

    def test_every_spin_on_a_target_truncates_at_its_completion(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(2, poll_cost=100),)),
                TaskSpec(id=1, actions=(PollOutcome(2, poll_cost=50),)),
                TaskSpec(id=2, actions=(Compute(7),)),
            ),
            roots=(0, 1, 2),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=pol.reference()))
        spins = sorted(
            (s.thread, s.task, s.start, s.end)
            for s in trace.segments
            if s.kind is SegmentKind.POLL_SPIN
        )
        assert spins == [(0, 0, 0, 7), (1, 1, 0, 7)]
        assert trace.makespan == 7

    @pytest.mark.parametrize("poller_thread", [0, 1])
    def test_spin_cut_short_on_either_side_resumes_at_once(self, poller_thread):
        # The target completes on the other thread at 7, before or after the
        # settle pass visits the spinner; the spin ends at 7 either way and
        # the poller computes from 7, with no timestamp in between.
        poller = TaskSpec(id=0, actions=(PollOutcome(1, poll_cost=100), Compute(2)))
        target = TaskSpec(id=1, actions=(Compute(7),))
        roots = (0, 1) if poller_thread == 0 else (1, 0)
        trace = simulate(TaskGraph((poller, target), roots), SimConfig(thread_count=2, policy=pol.reference()))
        assert Segment(poller_thread, 0, 0, 7, SegmentKind.POLL_SPIN) in trace.segments
        assert Segment(poller_thread, 0, 7, 9, SegmentKind.COMPUTE) in trace.segments
        assert TraceEvent(7, EventKind.COMPLETED, 1, 1 - poller_thread) in trace.events
        assert trace.makespan == 9

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_spin_ends_when_its_target_completes_inside_a_pick(self, policy):
        # At 3 thread 1 queues task 2 and computes on; idle thread 2 picks
        # task 2, which spawns task 3 and completes inside the pick pass.
        # The spin on task 2 ends at 3 and the poller computes from 3.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(2, poll_cost=100), Compute(2))),
                TaskSpec(id=1, actions=(Compute(3), Spawn(2), Compute(5))),
                TaskSpec(id=2, actions=(Spawn(3),)),
                TaskSpec(id=3),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=policy))
        assert Segment(0, 0, 0, 3, SegmentKind.POLL_SPIN) in trace.segments
        assert Segment(0, 0, 3, 5, SegmentKind.COMPUTE) in trace.segments
        assert TraceEvent(3, EventKind.COMPLETED, 2, 2) in trace.events
        assert trace.makespan == 8

    def test_tied_poller_resumes_on_home_thread(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, YieldMode.DEFAULT, 2), Compute(3)), tied=True),
                TaskSpec(id=1, actions=(Compute(7),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.fcfs()))
        assert trace.outcome is Outcome.COMPLETED
        assert {s.thread for s in trace.segments if s.task == 0} == {0}

    def test_single_poller_reaches_target_after_yield(self):
        # with nothing else queued ahead of it, a failed yield lets the
        # thread fall through to the polled task itself
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, YieldMode.DEFAULT, 1),)),
                TaskSpec(id=1, actions=(Compute(1),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.outcome is Outcome.COMPLETED

    def test_consumer_churn_starves_queued_target(self):
        # two consumers keep swapping at the newest end of the queue; the
        # enclave at the old end never runs under reference yields
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(2, YieldMode.DEFAULT, 1),), tied=False),
                TaskSpec(id=1, actions=(PollOutcome(2, YieldMode.DEFAULT, 1),), tied=False),
                TaskSpec(id=2, actions=(Compute(1),)),
            ),
            roots=(0, 1, 2),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.outcome is Outcome.STARVATION_DETECTED
        assert not any(s.task == 2 for s in trace.segments)

    def test_fcfs_back_requeue_lets_target_run(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, YieldMode.DEFAULT, 1),)),
                TaskSpec(id=1, actions=(Compute(1),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.fcfs()))
        assert trace.outcome is Outcome.COMPLETED

    def test_poller_sleeps_until_next_event(self):
        # no other pickable work: the poller spins once, then sleeps until
        # the peer's completion wakes it instead of burning ticks
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, YieldMode.LATENCY, 1),)),
                TaskSpec(id=1, actions=(Compute(50),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.extended()))
        assert trace.outcome is Outcome.COMPLETED
        spins = [s for s in trace.segments if s.kind is SegmentKind.POLL_SPIN]
        assert spins == [trace.segments[0]] and (spins[0].start, spins[0].end) == (0, 1)

    def test_poll_cycle_starves(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, YieldMode.LATENCY, 1),)),
                TaskSpec(id=1, actions=(PollOutcome(0, YieldMode.LATENCY, 1),)),
            ),
            roots=(0, 1),
        )
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.extended()))
        assert trace.outcome is Outcome.STARVATION_DETECTED

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_staggered_pollers_wait_out_a_long_compute(self, policy):
        # the pollers fail again and again without progress while the
        # target computes on the third thread; that is not starvation
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(2, YieldMode.DEFAULT, 1),), tied=False),
                TaskSpec(id=1, actions=(PollOutcome(2, YieldMode.DEFAULT, 2),), tied=False),
                TaskSpec(id=2, actions=(Compute(1000),)),
            ),
            roots=(0, 1, 2),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=policy))
        assert trace.outcome is Outcome.COMPLETED
        assert trace.makespan == 1000

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    @pytest.mark.parametrize("wait", [TaskwaitChildren, TaskgroupEnd])
    @pytest.mark.parametrize("mode", [WaitMode.THROUGHPUT, WaitMode.LATENCY])
    def test_waiter_behind_mutual_pollers_starves_at_first_full_round(self, policy, wait, mode):
        # the parent's wait on the two pollers can never be satisfied; the
        # first poller to fail twice without progress (t=8) sees it
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1), Spawn(2), Compute(5), wait(mode))),
                TaskSpec(id=1, actions=(PollOutcome(2, YieldMode.LATENCY, 1),)),
                TaskSpec(id=2, actions=(PollOutcome(1, YieldMode.LATENCY, 2),)),
            ),
            roots=(0,),
        )
        trace = simulate(g, SimConfig(thread_count=3, policy=policy))
        assert trace.outcome is Outcome.STARVATION_DETECTED
        assert trace.makespan == 8

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_parent_of_stolen_undeferred_child_starves(self, policy):
        # the undeferred child yields and is taken by the idle thread 2;
        # its parent stays blocked on thread 0 while task 2 spins on
        # thread 1, so only a blocked parent counted as stuck ends the run
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1, DeferMode.UNDEFERRED),)),
                TaskSpec(id=1, actions=(PollOutcome(2, YieldMode.DEFAULT, 1),), tied=False),
                TaskSpec(id=2, actions=(PollOutcome(1, YieldMode.LATENCY, 2),)),
            ),
            roots=(0, 2),
        )
        cfg = SimConfig(thread_count=3, policy=policy, max_virtual_time=10_000)
        trace = simulate(g, cfg)
        assert trace.outcome is Outcome.STARVATION_DETECTED
        assert trace.makespan == 3
        assert {s.thread for s in trace.segments if s.task == 1} == {0, 2}

    @pytest.mark.xfail(
        strict=True,
        reason="_starved_round counts a thread whose top poller failed since the last "
        "progress as stuck even when it could pick other work: this run reports "
        "starvation at t=4, yet it completes at t=8 without the full-round check",
    )
    def test_failed_poller_that_can_pick_work_is_not_stuck(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(
                    id=0,
                    actions=(PollOutcome(1, YieldMode.LATENCY, 2), TaskgroupEnd(WaitMode.LATENCY)),
                    priority=-1,
                    tied=False,
                ),
                TaskSpec(
                    id=1,
                    actions=(PollOutcome(2, YieldMode.THROUGHPUT, 0), TaskwaitChildren()),
                    priority=-1,
                    tied=False,
                ),
                TaskSpec(id=2, actions=(Compute(4),), priority=-1),
            ),
            roots=(0, 1, 2),
        )
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.outcome is Outcome.COMPLETED


class TestTraceSerialization:
    def test_json_round_trip(self):
        trace = simulate(fork_join_graph(), SimConfig(thread_count=2, policy=pol.reference()))
        assert ScheduleTrace.from_json(trace.to_json()) == trace

    def test_csv_layout(self):
        trace = simulate(single_task_graph(), SimConfig(thread_count=1, policy=pol.reference()))
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "thread,task,start,end,kind"
        assert lines[1] == "0,0,0,10,compute"

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_records_are_exactly_segments_and_events(self, policy):
        # spawns, steals, waits, spins and yields: every record kind the engine appends
        rng = SplitMix64(3)
        graph = tied_forest(rng, 6, latency=True)
        trace = simulate(graph, SimConfig(thread_count=3, policy=policy))
        assert trace.segments and {type(s) for s in trace.segments} == {Segment}
        assert trace.events and {type(e) for e in trace.events} == {TraceEvent}



def thread_state(th):
    """What a ``_run_thread`` call can move: the segment, the stack depth and the top run's place."""
    top = th.stack[-1] if th.stack else None
    return th.seg_task, th.seg_end, len(th.stack), top and top.pc, top and top.wait


def run_thread_moves(monkeypatch, graph, cfg):
    """Simulate; return the trace and, per ``_run_thread`` call, whether it moved its thread."""
    moves = []
    step = _Engine._run_thread

    def recorded(self, th, now):
        before = thread_state(th)
        step(self, th, now)
        moves.append(thread_state(th) != before)

    monkeypatch.setattr(_Engine, "_run_thread", recorded)
    return simulate(graph, cfg), moves


class TestDeepTrees:
    """Deep spawn trees simulate without recursion or quadratic walks."""

    @pytest.mark.parametrize("wait", [TaskwaitChildren, TaskgroupEnd])
    @pytest.mark.parametrize("policy", [pol.reference(), pol.extended()], ids=["reference", "extended"])
    def test_settle_passes_skip_parked_runs(self, monkeypatch, policy, wait):
        # A run stopped at a wait moves only after a completion, so no
        # settle pass runs a thread whose top run cannot move.
        graph = spawn_chain(64, wait, SplitMix64(1))
        trace, moves = run_thread_moves(monkeypatch, graph, SimConfig(thread_count=2, policy=policy))
        assert trace.outcome is Outcome.COMPLETED
        assert moves and all(moves)

    DEPTH = 10_000

    @pytest.mark.parametrize("policy", [pol.reference(), pol.extended()], ids=["reference", "extended"])
    def test_taskgroup_chain_completes(self, policy):
        g = spawn_chain(self.DEPTH, TaskgroupEnd, SplitMix64(1))
        trace = simulate(g, SimConfig(thread_count=2, policy=policy))
        assert trace.outcome is Outcome.COMPLETED
        assert validate_trace(g, trace) == []

    def test_undeferred_chain_completes(self):
        g = spawn_chain(self.DEPTH, None, SplitMix64(1), defer=DeferMode.UNDEFERRED)
        trace = simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        assert trace.outcome is Outcome.COMPLETED
        assert trace.makespan == sum(
            a.duration for spec in g.tasks for a in spec.actions if isinstance(a, Compute)
        )

    def test_latency_taskgroup_chain_completes(self):
        # The idle-until-complete waits nest level by level on the
        # threads' stacks, and every pick is filtered by all of them.
        g = spawn_chain(200, lambda: TaskgroupEnd(WaitMode.LATENCY), SplitMix64(1))
        trace = simulate(g, SimConfig(thread_count=2, policy=pol.extended()))
        assert trace.outcome is Outcome.COMPLETED
        assert validate_trace(g, trace) == []
