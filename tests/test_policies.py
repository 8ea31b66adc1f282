import heapq
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from schedsim import policies as pol
from schedsim.policies import Placement, PolicyKind, ReadyQueues, Requeue, on_spawn, on_yield
from schedsim.task_graph import DeferMode, TaskGraph, TaskSpec, YieldMode


def entry(seq, task, priority=0):
    return (-priority, seq, task)


def q(*entries):
    """A ready queue; the last entry is at the pick end."""
    return entries


def anything(task_id):
    return True


def ready(cfg, *queues):
    """ReadyQueues holding `queues`, one per thread (one for fcfs), seeded
    through `push` in `seq` order; each queue lists its entries as a
    plain push (fcfs: any push) would order them."""
    rq = ReadyQueues(cfg, TaskGraph(), len(queues))
    pushes = sorted((e[1], pos, e[2], -e[0]) for pos, queue in enumerate(queues) for e in queue)
    for _, pos, task_id, priority in pushes:
        rq.push(pos, task_id, priority)
    return rq


def assert_pick(cfg, thread, queues, pickable, task, stolen):
    """The pick returns (task, stolen) and removes only that task's entry."""
    rq = ready(cfg, *queues)
    assert rq.pick(thread, pickable) == (task, stolen)
    assert rq.counts == [len(queue) - any(e[2] == task for e in queue) for queue in queues]
    for queue in queues:
        for _, _, queued in queue:
            assert rq.any_pickable(lambda t: t == queued) == (queued != task)


def decoded(entry):
    """``(-rank, order, task)`` of a packed near entry (a far entry negated)."""
    return entry >> 96, (entry >> 32 & (2**64 - 1)) - 2**63, entry & (2**32 - 1)


def task(label="", priority=0):
    return TaskSpec(id=99, actions=(), label=label, priority=priority)


class TestConfig:
    def test_reference_forces_extension_flags_off(self):
        cfg = pol.PolicyConfig(kind=PolicyKind.REFERENCE_DEQUE, fair_yield=True, priority_aware=True)
        assert not cfg.fair_yield and not cfg.priority_aware
        assert not cfg.honor_latency_wait and not cfg.scatter_on_overflow

    def test_fcfs_forces_unbounded(self):
        cfg = pol.PolicyConfig(kind=PolicyKind.GLOBAL_FCFS, queue_bound=8)
        assert cfg.queue_bound is None

    def test_fcfs_forces_extension_flags_off(self):
        cfg = pol.PolicyConfig(
            kind=PolicyKind.GLOBAL_FCFS, honor_latency_wait=True, priority_aware=True
        )
        assert not cfg.honor_latency_wait and not cfg.priority_aware
        assert not cfg.fair_yield and not cfg.scatter_on_overflow

    def test_latency_waits_idle_only_under_extended(self):
        assert pol.extended().honor_latency_wait
        assert not pol.extended(honor_latency_wait=False).honor_latency_wait
        assert not pol.reference().honor_latency_wait and not pol.fcfs().honor_latency_wait

    def test_bad_bound_rejected(self):
        with pytest.raises(pol.ConfigError):
            pol.reference(queue_bound=0)

    @pytest.mark.parametrize("bound", [2.5, True, "3"])
    def test_bound_takes_exact_ints(self, bound):
        for make in (pol.reference, pol.extended):
            with pytest.raises(pol.ConfigError, match="queue_bound"):
                make(queue_bound=bound)


class TestOnSpawn:
    def test_reference_below_bound_enqueues(self):
        decision = on_spawn(pol.reference(), 0, task(priority=3), [255, 0, 0, 0])
        assert decision == Placement(0, 3)

    def test_reference_at_bound_throttles(self):
        decision = on_spawn(pol.reference(), 0, task(), [256, 0, 0, 0])
        assert decision is None

    def test_reference_unbounded_never_throttles(self):
        cfg = pol.reference(queue_bound=None)
        decision = on_spawn(cfg, 1, task(), [0, 10**6])
        assert decision == Placement(1, 0)

    def test_undeferred_request_wins_everywhere(self):
        for cfg in (pol.reference(), pol.fcfs(), pol.extended()):
            decision = on_spawn(cfg, 0, task(), [0, 0], defer=DeferMode.UNDEFERRED)
            assert decision is None

    def test_fcfs_always_enqueues(self):
        decision = on_spawn(pol.fcfs(), 2, task(), [10**9])
        assert decision == Placement(2, 0)

    def test_must_defer_scatters_to_first_spacious_victim(self):
        cfg = pol.extended(queue_bound=256)
        decision = on_spawn(
            cfg, 0, task(), [256, 256, 10, 0], defer=DeferMode.MUST_DEFER
        )
        assert decision == Placement(2, pol.MIN_PRIORITY)

    def test_must_defer_prefers_local_when_space(self):
        cfg = pol.extended(queue_bound=256)
        decision = on_spawn(cfg, 0, task(), [10, 0, 0, 0], defer=DeferMode.MUST_DEFER)
        assert decision == Placement(0, 0)

    def test_must_defer_all_full_falls_back_to_undeferred(self):
        cfg = pol.extended(queue_bound=4)
        decision = on_spawn(cfg, 1, task(), [4, 4, 4], defer=DeferMode.MUST_DEFER)
        assert decision is None

    def test_scatter_never_targets_spawner(self):
        cfg = pol.extended(queue_bound=1)
        for spawner in range(4):
            decision = on_spawn(
                cfg, spawner, task(), [1, 0, 0, 0], defer=DeferMode.MUST_DEFER
            )
            if spawner:
                assert decision == Placement(spawner, 0)
            else:
                assert decision == Placement(1, pol.MIN_PRIORITY)

    def test_loop_chunks_scatter_one_per_victim_then_local(self):
        cfg = pol.extended()
        chunk = task(label=pol.LOOP_CHUNK_LABEL)
        lengths = [0, 0, 0, 0]
        targets = [
            on_spawn(cfg, 0, chunk, lengths, scatter_cursor=i, max_queue_priority=lambda: 0)
            for i in range(4)
        ]
        assert targets[:3] == [Placement(1, 1), Placement(2, 1), Placement(3, 1)]
        assert targets[3] == Placement(0, 1)

    def test_loop_chunk_priority_tops_pending_work(self):
        cfg = pol.extended()
        chunk = task(label=pol.LOOP_CHUNK_LABEL, priority=0)
        decision = on_spawn(cfg, 0, chunk, [3, 3], scatter_cursor=0, max_queue_priority=lambda: 7)
        assert decision == Placement(1, 8)

    def test_reference_ignores_chunk_label(self):
        decision = on_spawn(pol.reference(), 0, task(label=pol.LOOP_CHUNK_LABEL), [0, 0])
        assert decision == Placement(0, 0)

    def test_max_queue_priority_read_only_for_extended_loop_chunks(self):
        def unread():
            raise AssertionError("max_queue_priority was called")

        chunk = task(label=pol.LOOP_CHUNK_LABEL)
        for cfg in (pol.reference(queue_bound=1), pol.fcfs(), pol.extended(queue_bound=1)):
            chunks_scatter = cfg.kind is PolicyKind.EXTENDED
            for spawned in (task(), chunk):
                for defer in DeferMode:
                    if chunks_scatter and spawned is chunk and defer is not DeferMode.UNDEFERRED:
                        continue
                    for lengths in ([0, 0], [1, 0], [1, 1]):
                        on_spawn(cfg, 0, spawned, lengths, defer=defer, max_queue_priority=unread)

        calls = []

        def top():
            calls.append(None)
            return 3

        decision = on_spawn(pol.extended(), 0, chunk, [0, 0], max_queue_priority=top)
        assert decision == Placement(1, 4)
        assert len(calls) == 1


class TestOnIdle:
    """`ReadyQueues.pick`, the pick of an idle or helping thread."""

    def test_reference_pops_own_tail(self):
        queues = [q(entry(1, 10), entry(2, 11), entry(3, 12)), q()]
        assert_pick(pol.reference(), 0, queues, anything, 12, False)

    def test_reference_steals_head(self):
        queues = [q(), q(entry(1, 10), entry(2, 11), entry(3, 12))]
        assert_pick(pol.reference(), 0, queues, anything, 10, True)

    def test_reference_steal_order_round_robin(self):
        queues = [q(), q(), q(entry(5, 20)), q(entry(1, 30))]
        # thread 1 probes 2, 3, 0 in that order
        assert_pick(pol.reference(), 1, queues, anything, 20, True)

    def test_own_pick_skips_unpickable_newest(self):
        queues = [q(entry(1, 10), entry(2, 11), entry(3, 12)), q(entry(4, 13))]
        assert_pick(pol.reference(), 0, queues, lambda t: t != 12, 11, False)

    def test_steal_skips_unpickable_oldest(self):
        queues = [q(entry(1, 10)), q(entry(2, 20), entry(3, 21), entry(4, 22))]
        assert_pick(pol.reference(), 0, queues, lambda t: t not in (10, 20), 21, True)

    def test_unaware_steal_under_small_sync_set_takes_far_end(self):
        # only priority-aware picks look a small sync set up through the index
        queues = [q(entry(1, 10)), q(entry(2, 20), entry(3, 21), entry(4, 22))]
        rq = ready(pol.extended(priority_aware=False), *queues)
        assert rq.pick(0, anything, {21, 22}) == (21, True)

    def test_nothing_pickable_returns_none(self):
        queues = [q(entry(1, 10)), q(entry(2, 20))]
        for cfg in (pol.reference(), pol.extended()):
            rq = ready(cfg, *queues)
            assert rq.pick(0, lambda t: False) is None
            assert not rq.any_pickable(lambda t: False)
            assert rq.any_pickable(lambda t: t == 20)
            assert rq.counts == [1, 1]

    def test_priority_aware_picks_highest(self):
        queues = [q(entry(1, 10, 0), entry(2, 11, 9), entry(3, 12, 0)), q()]
        assert_pick(pol.extended(), 0, queues, anything, 11, False)

    def test_priority_aware_skips_unpickable_highest(self):
        queues = [q(entry(1, 10, 0), entry(2, 11, 9), entry(3, 12, 4)), q(entry(4, 20, 7))]
        assert_pick(pol.extended(), 0, queues, lambda t: t not in (11, 20), 12, False)

    def test_priority_aware_steals_higher_priority_over_own(self):
        queues = [q(entry(1, 10, 0)), q(entry(2, 11, 5))]
        assert_pick(pol.extended(), 0, queues, anything, 11, True)

    def test_priority_tie_prefers_own_queue(self):
        queues = [q(entry(9, 10, 1)), q(entry(1, 11, 1))]
        assert_pick(pol.extended(), 0, queues, anything, 10, False)

    def test_priority_tie_across_victims_oldest_first(self):
        queues = [q(), q(entry(9, 10, 1)), q(entry(2, 11, 1))]
        assert_pick(pol.extended(), 0, queues, anything, 11, True)

    def test_fcfs_takes_head_of_shared_queue(self):
        # The pick end is on the right, so the oldest entry sits there.
        queues = [q(entry(2, 11), entry(1, 10))]
        assert_pick(pol.fcfs(), 3, queues, anything, 10, False)

    def test_empty_everything_returns_none(self):
        assert ready(pol.reference(), q(), q()).pick(0, anything) is None


class TestReadyQueues:
    def test_fcfs_serves_push_order_whatever_back_says(self):
        rq = ReadyQueues(pol.fcfs(), TaskGraph(), 4)
        pushes = [(10, False), (11, True), (12, False), (13, True), (14, False)]
        for task_id, back in pushes:
            rq.push(task_id % 4, task_id, 0, back)
        assert rq.counts == [5]
        assert [rq.pick(t % 4, anything) for t in range(5)] == [(t, False) for t, _ in pushes]

    def test_back_goes_behind_the_pick_end(self):
        rq = ReadyQueues(pol.reference(), TaskGraph(), 2)
        rq.push(0, 10, 0)
        rq.push(0, 11, 0, back=True)
        rq.push(0, 12, 0)
        assert [rq.pick(0, anything) for _ in range(3)] == [(12, False), (10, False), (11, False)]

    def test_roots_pick_in_submission_order_per_queue(self):
        graph = TaskGraph(tasks=tuple(TaskSpec(id=i) for i in range(5)), roots=(4, 3, 2, 1, 0))
        rq = ReadyQueues(pol.reference(), graph, 2)
        assert rq.counts == [3, 2]
        # Own picks follow the submission order; a thief takes the far end.
        assert [rq.pick(0, anything) for _ in range(3)] == [(4, False), (2, False), (0, False)]
        assert [rq.pick(0, anything) for _ in range(2)] == [(1, True), (3, True)]

    def test_lowest_pending_reads_own_queue(self):
        rq = ready(pol.extended(), q(entry(1, 10, 0), entry(2, 11, -3)), q(entry(3, 12, -9)))
        assert rq.lowest_pending(0) == -3
        assert ready(pol.extended(), q(), q(entry(3, 12, -9))).lowest_pending(0) is None

    @pytest.mark.parametrize(
        "cfg", [pol.reference(), pol.fcfs(), pol.extended(priority_aware=False)], ids=["reference", "fcfs", "unaware"]
    )
    def test_unaware_queues_keep_no_priorities(self, cfg):
        # without priority awareness no priority reaches a decision, so
        # the entries hold none and neither query reads one
        rq = ReadyQueues(cfg, TaskGraph(), 2)
        for task_id, priority in enumerate((5, -3, 0, 9)):
            rq.push(task_id % 2, task_id, priority, back=task_id == 3)
        assert rq.lowest_pending(0) is None
        assert rq.lowest_pending(1) is None
        assert rq.max_priority() is None
        assert all(decoded(entry)[0] == 0 for heap in rq.near for entry in heap)
        assert all(decoded(-entry)[0] == 0 for heap in rq.far for entry in heap)

    def test_max_priority_skips_loop_chunks(self):
        specs = (task(), task(label=pol.LOOP_CHUNK_LABEL), task())
        graph = TaskGraph(tasks=tuple(TaskSpec(id=i, label=s.label) for i, s in enumerate(specs)))
        rq = ReadyQueues(pol.extended(), graph, 2)
        assert rq.max_priority() is None
        rq.push(0, 0, 3)
        rq.push(1, 1, 9)
        rq.push(1, 2, -1)
        assert rq.max_priority() == 3


def _best_pickable(queue, pickable):
    """Position and entry of the smallest pickable entry, or (None, None):
    the linear-scan pick rule the indexed heaps must reproduce."""
    best_pos, best = None, None
    for pos, entry in enumerate(queue):
        if (best is None or entry < best) and pickable(entry[2]):
            best_pos, best = pos, entry
    return best_pos, best


def _max_unchunked(specs, pending):
    """Highest of the ``(priority, task)`` pairs, loop chunks excluded."""
    return max(
        (priority for priority, task in pending if specs[task].label != pol.LOOP_CHUNK_LABEL),
        default=None,
    )


class ScanQueues:
    """Priority-aware ready queues as plain lists searched by linear scans."""

    def __init__(self, graph, thread_count):
        self.specs = graph.tasks
        self.queues = [[] for _ in range(thread_count)]
        self.seq = 0
        for pos, root in enumerate(graph.roots):
            self.push(pos, root, self.specs[root].priority)

    def push(self, thread, task, priority, back=False):
        self.seq += 1
        self.queues[thread % len(self.queues)].append((-priority, self.seq, task))

    def pick(self, thread, pickable):
        queues = self.queues
        own = thread % len(queues)
        own_pos, own_best = _best_pickable(queues[own], pickable)
        steal_queue, steal_pos, steal_best = None, None, None
        for victim in [(own + off) % len(queues) for off in range(1, len(queues))]:
            pos, entry = _best_pickable(queues[victim], pickable)
            if entry is not None and (steal_best is None or entry < steal_best):
                steal_queue, steal_pos, steal_best = queues[victim], pos, entry
        if own_best is not None and (steal_best is None or own_best[0] <= steal_best[0]):
            del queues[own][own_pos]
            return own_best[2], False
        if steal_best is None:
            return None
        del steal_queue[steal_pos]
        return steal_best[2], True

    def lowest_pending(self, thread):
        queue = self.queues[thread % len(self.queues)]
        return -max(queue)[0] if queue else None

    def max_priority(self):
        return _max_unchunked(self.specs, ((-e[0], e[2]) for queue in self.queues for e in queue))


class DequeQueues:
    """Ready queues without priority awareness as deques of tasks, the
    right end being the pick end: LIFO own pick, FIFO steal from
    round-robin victims, ``back`` (every push, for fcfs) at the far end.
    No priority is kept.  The rule the near/far heaps must reproduce."""

    def __init__(self, graph, queue_count, back_only=False):
        self.queues = [deque() for _ in range(queue_count)]
        self.back_only = back_only
        for pos, root in enumerate(graph.roots):
            self.push(pos, root, 0, back=True)

    def push(self, thread, task, priority, back=False):
        queue = self.queues[thread % len(self.queues)]
        if back or self.back_only:
            queue.appendleft(task)
        else:
            queue.append(task)

    def pick(self, thread, pickable):
        own = thread % len(self.queues)
        queue = self.queues[own]
        for task in reversed(queue):
            if pickable(task):
                queue.remove(task)
                return task, False
        for victim in [(own + off) % len(self.queues) for off in range(1, len(self.queues))]:
            for task in self.queues[victim]:
                if pickable(task):
                    self.queues[victim].remove(task)
                    return task, True
        return None

    def lowest_pending(self, thread):
        return None

    def max_priority(self):
        return None


# Small priorities tie often; MIN_PRIORITY (a must_defer scatter), the
# values below it (fair yields go one lower without bound) and those past
# 2**64 reach the far ends of the packed entries.
PRIORITIES = st.integers(-2, 2) | st.sampled_from(
    [pol.MIN_PRIORITY, pol.MIN_PRIORITY - 1, pol.MIN_PRIORITY - 2**70, 2**64, 2**64 + 1, 2**100]
)


def drive_against_model(data, cfg, model, max_threads=4):
    """Random pushes (re-pushing picked tasks, so heaps hold dead entries),
    picks under random `movable` predicates and `allowed` sets of every
    size, and every query agree between `ReadyQueues` under `cfg` and
    `model(graph, threads)`.  The queued task ids start at 0 or in the
    thousands."""
    threads = data.draw(st.integers(1, max_threads), label="threads")
    size = data.draw(st.integers(1, 16), label="tasks")
    first = data.draw(st.sampled_from([0, 1000, 4093]), label="first id")
    specs = (TaskSpec(id=0),) * first + tuple(
        TaskSpec(
            id=first + i,
            priority=data.draw(PRIORITIES),
            label=data.draw(st.sampled_from(["", pol.LOOP_CHUNK_LABEL])),
        )
        for i in range(size)
    )
    ids = range(first, first + size)
    graph = TaskGraph(tasks=specs, roots=tuple(ids[: data.draw(st.integers(0, size))]))
    rq, model = ReadyQueues(cfg, graph, threads), model(graph, threads)
    queued = set(graph.roots)
    tasks = st.sampled_from(ids)
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        thread = data.draw(st.integers(0, threads - 1))
        op = data.draw(st.sampled_from(["push", "push", "pick", "pick", "queries"]))
        if op == "push" and len(queued) < size:
            task_id = data.draw(st.sampled_from(sorted(set(ids) - queued)))
            priority = data.draw(PRIORITIES)
            back = data.draw(st.booleans())
            rq.push(thread, task_id, priority, back)
            model.push(thread, task_id, priority, back)
            queued.add(task_id)
        elif op == "pick":
            stuck = data.draw(st.frozensets(tasks))
            allowed = data.draw(st.none() | st.sets(tasks))

            def movable(t):
                return t not in stuck

            picked = rq.pick(thread, movable, allowed)
            assert picked == model.pick(thread, lambda t: (allowed is None or t in allowed) and movable(t))
            if picked is not None:
                queued.remove(picked[0])
        elif op == "queries":
            stuck = data.draw(st.frozensets(tasks))
            allowed = data.draw(st.none() | st.sets(tasks))
            assert rq.lowest_pending(thread) == model.lowest_pending(thread)
            assert rq.max_priority() == model.max_priority()
            pickable = queued - stuck if allowed is None else (queued & allowed) - stuck
            assert rq.any_pickable(lambda t: t not in stuck, allowed) == bool(pickable)
        assert rq.counts == [len(queue) for queue in model.queues]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_priority_aware_queues_match_linear_scan(data):
    # Up to 8 victims, so steals read the one global order across many queues.
    drive_against_model(data, pol.extended(), ScanQueues, max_threads=9)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([pol.reference(), pol.fcfs(), pol.extended(priority_aware=False)]))
def test_priority_unaware_queues_match_deques(data, cfg):
    if cfg.kind is PolicyKind.GLOBAL_FCFS:
        drive_against_model(data, cfg, lambda graph, _: DequeQueues(graph, 1, back_only=True))
    else:
        drive_against_model(data, cfg, DequeQueues)


class CountingSet(set):
    def __init__(self, items):
        super().__init__(items)
        self.lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


class TestPickWork:
    """Work and memory bounds of the indexed heaps, as call counts and
    heap sizes."""

    @pytest.mark.parametrize("cfg", [pol.extended(), pol.reference()], ids=["extended", "reference"])
    def test_picking_all_roots_is_linear_in_movable_calls(self, cfg):
        n = 5000
        graph = TaskGraph(tasks=tuple(TaskSpec(id=i) for i in range(n)), roots=tuple(range(n)))
        rq = ReadyQueues(cfg, graph, 8)
        calls = []

        def movable(task_id):
            calls.append(task_id)
            return True

        picked = [rq.pick(i % 8, movable)[0] for i in range(n)]
        assert sorted(picked) == list(range(n))
        assert rq.pick(0, movable) is None
        assert len(calls) <= 2 * n

    def test_small_latency_set_is_looked_up_not_scanned(self):
        rq = ReadyQueues(pol.extended(), TaskGraph(), 2)
        for task_id in range(2000):
            rq.push(task_id % 2, task_id, 1)
        for task_id in (2000, 2001, 2002):
            rq.push(1, task_id, 0)
        allowed = CountingSet({2000, 2001, 2002})
        calls = []

        def movable(task_id):
            calls.append(task_id)
            return True

        assert rq.pick(0, movable, allowed) == (2000, True)
        assert len(calls) + allowed.lookups <= 3

    def test_unaware_small_latency_set_is_looked_up_not_scanned(self):
        # Own queue 1 holds nothing in the set; victims in order are 2, 3, 0.
        # Queue 2's set task is unmovable, so the steal takes queue 3's far
        # end, its oldest set entry, though queue 0 holds one too.
        rq = ReadyQueues(pol.extended(priority_aware=False), TaskGraph(), 4)
        for task_id in range(2000):
            rq.push(task_id % 4, task_id, 0)
        for queue, task_id in ((2, 2000), (3, 2001), (3, 2002), (0, 2003)):
            rq.push(queue, task_id, 0)
        for task_id in range(2004, 2100):
            rq.push(task_id % 4, task_id, 0)
        allowed = CountingSet({2000, 2001, 2002, 2003})
        calls = []

        def movable(task_id):
            calls.append(task_id)
            return task_id != 2000

        assert rq.pick(1, movable, allowed) == (2001, True)
        assert len(calls) == len(set(calls)) and set(calls) <= allowed
        assert allowed.lookups <= 4

    def test_filtered_pick_asks_movable_only_of_an_entry_that_beats_its_side(self):
        # the set yields 0, 1, 2, 3: each side's best entry comes first, so
        # movable is asked of it alone
        rq = ReadyQueues(pol.extended(), TaskGraph(), 2)
        for task_id, queue, priority in ((0, 0, 5), (1, 0, 1), (2, 1, 4), (3, 1, 0)):
            rq.push(queue, task_id, priority)
        for task_id in range(10, 20):
            rq.push(0, task_id, 9)
        calls = []

        def movable(task_id):
            calls.append(task_id)
            return True

        assert rq.pick(0, movable, {0, 1, 2, 3}) == (0, False)
        assert calls == [0, 2]

    def test_filtered_pick_takes_an_own_top_in_the_set_at_once(self):
        # no entry outranks the own top, which is in the set and movable:
        # neither side's entries in the set are looked at
        rq = ReadyQueues(pol.extended(), TaskGraph(), 2)
        for task_id in range(100):
            rq.push(0, task_id, task_id)
        for task_id in range(100, 300):
            rq.push(1, task_id, 0)
        calls = []

        def movable(task_id):
            calls.append(task_id)
            return True

        assert rq.pick(0, movable, set(range(100))) == (99, False)
        assert calls == [99]

    def test_fair_yields_pop_each_dead_entry_once(self, monkeypatch):
        rq = ReadyQueues(pol.extended(), TaskGraph(), 1)
        dead_pops = {"near": [], "far": []}

        def heappop(heap):
            if not rq._live(heap[0] if heap is rq.near[0] else -heap[0]):
                dead_pops["near" if heap is rq.near[0] else "far"].append(heap[0])
            return heapq.heappop(heap)

        monkeypatch.setattr(pol, "heappop", heappop)
        rq.push(0, 0, 0)  # stays queued: never movable
        for _ in range(2000):
            rq.push(0, 1, rq.lowest_pending(0) - 1, back=True)  # fair yield of poller 1
            assert rq.pick(0, lambda t: t != 0) == (1, False)
        assert rq.lowest_pending(0) == 0
        for popped in dead_pops.values():
            assert len(popped) == len(set(popped)) <= 2000

    def test_dead_entries_stay_bounded(self):
        # every pick leaves a dead entry in one heap or both; without fair
        # yields nothing pops the far ones, so a heap is rebuilt from its
        # live entries
        n = 2000
        graph = TaskGraph(
            tasks=tuple(TaskSpec(id=i, priority=i % 7) for i in range(n)), roots=tuple(range(n))
        )
        rq = ReadyQueues(pol.extended(), graph, 8)
        for step in range(n):
            rq.pick(step % 8, lambda t: True)
            for heaps in (rq.near, rq.far):
                assert all(len(heap) <= 2 * count + 16 for heap, count in zip(heaps, rq.counts))
            if step % 97 == 0:
                for queue in range(8):
                    pending = [-decoded(e)[0] for q, e in rq.index.values() if q == queue]
                    assert rq.lowest_pending(queue) == min(pending, default=None)
        assert rq.counts == [0] * 8
        assert all(len(heap) <= 16 for heap in rq.near + rq.far)

    def test_stealing_a_whole_queue_keeps_its_near_heap_bounded(self):
        # the thief reads the victim's far heap; the victim's near heap
        # keeps a dead entry per steal until it is rebuilt
        n = 2000
        rq = ReadyQueues(pol.reference(), TaskGraph(), 2)
        for task_id in range(n):
            rq.push(1, task_id, 0)
        for task_id in range(n):
            assert rq.pick(0, lambda t: True) == (task_id, True)
            assert len(rq.near[1]) <= 2 * rq.counts[1] + 16
        assert rq.counts == [0, 0]
        assert rq.pick(1, lambda t: True) is None


class TestQueueBookkeeping:
    """The mask of filled queues, the counted ``max_priority`` and the far
    heaps built on first read, against the scans they replace."""

    @pytest.mark.parametrize("count", range(1, 10))
    def test_steals_walk_the_filled_victims_round_robin(self, count):
        # queue v holds task v; an unaware pick asks for each victim's task
        # in order and stops at the first pickable one
        for own in range(count):
            for mask in range(1 << count):
                victims = [v for v in pol._victims(own, count) if mask >> v & 1]
                for pickable in (None, *victims):
                    rq = ReadyQueues(pol.reference(), TaskGraph(), count)
                    for v in range(count):
                        if mask >> v & 1:
                            rq.push(v, v, 0)
                    assert rq.filled == mask
                    asked = []
                    picked = rq.pick(own, lambda t: asked.append(t) or t == pickable)
                    stop = victims.index(pickable) + 1 if pickable is not None else count
                    assert [t for t in asked if t != own] == victims[:stop]
                    assert picked == (None if pickable is None else (pickable, True))

    @pytest.mark.parametrize("seed", range(10))
    def test_counted_max_priority_matches_a_scan(self, seed):
        rng = random.Random(seed)
        size, threads = 40, 4
        specs = tuple(TaskSpec(id=i, label=rng.choice(["", "", pol.LOOP_CHUNK_LABEL])) for i in range(size))
        graph = TaskGraph(tasks=specs, roots=tuple(range(rng.randint(0, 10))))
        rq = ReadyQueues(pol.extended(), graph, threads)
        queued = set(graph.roots)
        first_read = rng.randint(0, 100)
        for step in range(300):
            if rng.random() < 0.5 and len(queued) < size:
                task_id = rng.choice(sorted(set(range(size)) - queued))
                rq.push(rng.randrange(threads), task_id, rng.randint(-3, 3), rng.random() < 0.3)
                queued.add(task_id)
            else:
                stuck = set(rng.sample(range(size), 8))
                picked = rq.pick(rng.randrange(threads), lambda t: t not in stuck)
                if picked is not None:
                    queued.remove(picked[0])
            assert rq.filled == sum(1 << queue for queue, count in enumerate(rq.counts) if count)
            if step >= first_read:
                pending = [decoded(e) for _, e in rq.index.values()]
                scan = max(
                    (-rank for rank, _, task in pending if specs[task].label != pol.LOOP_CHUNK_LABEL),
                    default=None,
                )
                assert rq.max_priority() == scan

    def test_a_priority_counted_out_can_return(self):
        chunk = TaskSpec(id=4, label=pol.LOOP_CHUNK_LABEL)
        graph = TaskGraph(tasks=tuple(TaskSpec(id=i) for i in range(4)) + (chunk,))
        rq = ReadyQueues(pol.extended(), graph, 2)
        rq.push(0, 0, 5)
        rq.push(1, 1, 2)
        assert rq.max_priority() == 5
        # priority 5 drops to no entry and returns before the next read
        assert rq.pick(0, lambda t: t == 0) == (0, False)
        rq.push(0, 0, 5)
        assert rq.max_priority() == 5
        # it drops again, is pruned by a read, returns and drops once more
        assert rq.pick(0, lambda t: t == 0) == (0, False)
        assert rq.max_priority() == 2
        rq.push(1, 2, 5)
        assert rq.max_priority() == 5
        assert rq.pick(0, lambda t: t == 2) == (2, True)
        rq.push(0, 4, 9)  # a loop chunk does not count
        assert rq.max_priority() == 2
        assert rq.pick(1, lambda t: t == 1) == (1, False)
        assert rq.max_priority() is None
        rq.push(0, 3, 5)
        assert rq.max_priority() == 5

    def test_far_heaps_are_built_on_first_read(self):
        n = 40
        graph = TaskGraph(tasks=tuple(TaskSpec(id=i) for i in range(n)), roots=tuple(range(n)))
        for rq in (ReadyQueues(pol.fcfs(), graph, 4), ReadyQueues(pol.reference(), graph, 1)):
            assert [rq.pick(0, anything)[0] for _ in range(n)] == list(range(n))
            rq.push(0, 0, 0)
            assert rq.pick(0, anything) == (0, False)
            assert rq.far == [[]]
        rq = ReadyQueues(pol.reference(), graph, 2)
        for _ in range(n // 2):
            assert not rq.pick(0, anything)[1]
        assert rq.far == [[], []]
        assert rq.pick(0, anything) == (n - 1, True)  # the newest root of queue 1
        live = sorted(decoded(e)[2] for queue, e in rq.index.values() if queue == 1)
        assert sorted(decoded(-e)[2] for e in rq.far[1] if rq._live(-e)) == live
        rq.push(1, 0, 0)
        assert sorted(decoded(-e)[2] for e in rq.far[1] if rq._live(-e)) == [0] + live
        assert rq.far[0] == []
        aware = ReadyQueues(pol.extended(), graph, 2)
        assert aware.far == [[], []]
        assert aware.lowest_pending(1) == 0
        assert aware.far[0] == [] and len(aware.far[1]) == n // 2

    def test_lone_entry_steal_reads_no_far_heap(self):
        # queue 1 holds task 0 live under the dead entry of task 1; a steal
        # takes it off the near heap, and the far heap is never built
        rq = ReadyQueues(pol.reference(), TaskGraph(), 2)
        for task_id in range(3):
            rq.push(1, task_id, 0)
        assert rq.pick(1, lambda t: t != 2) == (1, False)
        assert rq.pick(1, anything) == (2, False)
        assert rq.counts == [0, 1] and len(rq.near[1]) == 2
        far_at_ask = []
        assert rq.pick(0, lambda t: far_at_ask.append(list(rq.far[1])) or True) == (0, True)
        assert far_at_ask == [[]] and rq.far[1] == []
        assert rq.counts == [0, 0] and rq.pick(1, anything) is None


def none():
    return None


class TestOnYield:
    def test_reference_default_requeues_front(self):
        assert on_yield(pol.reference(), 4, YieldMode.DEFAULT, none) == Requeue(False, 4)

    def test_reference_ignores_proposed_modes(self):
        assert on_yield(pol.reference(), 0, YieldMode.THROUGHPUT, none) == Requeue(False, 0)
        assert on_yield(pol.reference(), 0, YieldMode.LATENCY, none) == Requeue(False, 0)

    def test_fair_yield_goes_below_lowest_priority(self):
        assert on_yield(pol.extended(), 0, YieldMode.THROUGHPUT, lambda: -3) == Requeue(True, -4)

    def test_fair_yield_empty_queue_keeps_own_priority(self):
        assert on_yield(pol.extended(), 5, YieldMode.THROUGHPUT, none) == Requeue(True, 5)

    def test_fair_yield_applies_to_default_mode(self):
        assert on_yield(pol.extended(), 0, YieldMode.DEFAULT, lambda: 2) == Requeue(True, 1)

    def test_extended_without_fair_yield_default_churns(self):
        cfg = pol.extended(fair_yield=False)
        assert on_yield(cfg, 0, YieldMode.DEFAULT, none) == Requeue(False, 0)
        assert on_yield(cfg, 2, YieldMode.THROUGHPUT, lambda: -9) == Requeue(True, 2)

    def test_latency_resumes_immediately(self):
        assert on_yield(pol.extended(), 0, YieldMode.LATENCY, none) is None

    def test_fcfs_follows_extended_without_fair_yield(self):
        # the shared queue puts a front requeue at the far end as well
        for mode in YieldMode:
            assert on_yield(pol.fcfs(), 2, mode, none) == on_yield(pol.extended(fair_yield=False), 2, mode, none)

    def test_lowest_pending_read_only_for_fair_yields(self):
        def unread():
            raise AssertionError("lowest_pending was called")

        calls = []

        def lowest():
            calls.append(None)
            return 3

        configs = (pol.reference(), pol.fcfs(), pol.extended(), pol.extended(fair_yield=False))
        for cfg in configs:
            for mode in YieldMode:
                fair = cfg.fair_yield and mode is not YieldMode.LATENCY
                decision = on_yield(cfg, 0, mode, lowest if fair else unread)
                if fair:
                    assert decision == Requeue(True, 2)
        assert len(calls) == 2  # extended, default and throughput modes


def test_decisions_are_deterministic():
    cfg = pol.extended()
    queues = [q(entry(1, 1, 0)), q(entry(2, 2, 3))]
    assert ready(cfg, *queues).pick(0, anything) == ready(cfg, *queues).pick(0, anything)
    assert on_spawn(cfg, 0, task(), [1, 2]) == on_spawn(cfg, 0, task(), [1, 2])
