"""Scheduling policies as pure decision procedures, and the ready queues.

The engine consults a policy at every task scheduling point: task
creation (``on_spawn`` answers with a ``Placement`` or None), a failed
completion poll (``on_yield`` answers with a ``Requeue`` or None) and a
wait construct (``PolicyConfig.honor_latency_wait`` says whether a
latency wait idles); an idle or helping thread looking for work picks
from the run's ``ReadyQueues``, the same indexed heaps for every policy
with a policy-specific sort key.  Three policy families are provided:

* ``reference`` - a mainstream runtime: per-thread double-ended queues,
  LIFO pop, FIFO steal, a hard queue bound with fallback to undeferred
  execution (task throttling), priorities ignored.
* ``fcfs`` - the idealized baseline: one unbounded queue serving all
  threads first-come first-served.
* ``extended`` - the reference mechanics plus the prescriptive
  extensions: honored defer requests with scatter-on-overflow, fair
  yields, latency waits, and priority-aware pop and steal.

All decisions are pure functions of their inputs, so identical inputs
always produce identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable, NamedTuple, Optional, Sequence

from .task_graph import DeferMode, TaskSpec, YieldMode

#: Priority assigned to overflow-scattered tasks so they are never
#: brought forward on the target thread.  Priorities are plain Python
#: ints, so fair yields can always go one lower without saturating.
MIN_PRIORITY = -(2**63)

#: Label that marks loop-chunk tasks; the extended policy scatters them
#: one per victim queue with a priority above everything pending.
LOOP_CHUNK_LABEL = "loop-chunk"

# Packed ready-queue entries (see ``ReadyQueues``): order bias, task bits, a failed index lookup.
_BIAS, _TASK, _GONE = 1 << 63, (1 << 32) - 1, (None, None)


class PolicyKind(str, Enum):
    REFERENCE_DEQUE = "reference"
    GLOBAL_FCFS = "fcfs"
    EXTENDED = "extended"


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    """Tunable policy switches.

    ``queue_bound`` of ``None`` means unbounded.  ``scatter_on_overflow``
    spreads loop chunks one per victim queue and sends a ``must_defer``
    spawn that finds its own queue full to the first victim with space,
    at ``MIN_PRIORITY``.  Constructing a reference or fcfs config
    normalizes the extension switches to the values those policies
    imply; fcfs is also always unbounded.  Steal victims are always
    probed round-robin.
    """

    kind: PolicyKind
    queue_bound: Optional[int] = 256
    priority_aware: bool = False
    scatter_on_overflow: bool = False
    fair_yield: bool = False
    honor_latency_wait: bool = False

    def __post_init__(self):
        if self.queue_bound is not None and (type(self.queue_bound) is not int or self.queue_bound <= 0):
            raise ConfigError("queue_bound must be a positive int or None")
        if self.kind is not PolicyKind.EXTENDED:
            for flag in ("priority_aware", "fair_yield", "honor_latency_wait", "scatter_on_overflow"):
                object.__setattr__(self, flag, False)
        if self.kind is PolicyKind.GLOBAL_FCFS:
            object.__setattr__(self, "queue_bound", None)


def reference(queue_bound: Optional[int] = 256) -> PolicyConfig:
    return PolicyConfig(kind=PolicyKind.REFERENCE_DEQUE, queue_bound=queue_bound)


def fcfs() -> PolicyConfig:
    return PolicyConfig(kind=PolicyKind.GLOBAL_FCFS, queue_bound=None)


def extended(
    queue_bound: Optional[int] = 256,
    priority_aware: bool = True,
    scatter_on_overflow: bool = True,
    fair_yield: bool = True,
    honor_latency_wait: bool = True,
) -> PolicyConfig:
    return PolicyConfig(
        kind=PolicyKind.EXTENDED,
        queue_bound=queue_bound,
        priority_aware=priority_aware,
        scatter_on_overflow=scatter_on_overflow,
        fair_yield=fair_yield,
        honor_latency_wait=honor_latency_wait,
    )


# --- spawn decisions -----------------------------------------------------


class Placement(NamedTuple):
    """A deferred child's queue, named by a thread, and its priority.  A
    thread other than the spawner's is a scatter."""

    thread: int
    priority: int


# Build a decision from one tuple in C; a named tuple's own __new__ is Python.
_placement = partial(tuple.__new__, Placement)
_UNDEFERRED, _MUST_DEFER = DeferMode.UNDEFERRED, DeferMode.MUST_DEFER


def _victims(spawning_thread: int, thread_count: int) -> list:
    return [(spawning_thread + off) % thread_count for off in range(1, thread_count)]


def on_spawn(
    cfg: PolicyConfig,
    spawning_thread: int,
    task: TaskSpec,
    queue_lengths: Sequence[int],
    defer: DeferMode = DeferMode.RUNTIME_CHOICE,
    scatter_cursor: int = 0,
    max_queue_priority: Callable[[], Optional[int]] = lambda: None,
) -> Optional[Placement]:
    """Decide placement for a newly created task, or None to run it
    undeferred: requested by ``defer``, or else forced (throttling).

    ``queue_lengths`` has one entry per queue (``ReadyQueues.counts``,
    read only): one per thread, or a single shared entry for fcfs; the
    spawning thread's own queue is ``spawning_thread % len(queue_lengths)``.
    ``scatter_cursor`` counts earlier scatters by the same parent so loop
    chunks land one per victim before falling back to the local queue.
    ``max_queue_priority()`` returns the highest priority pending in any
    queue among non-chunk tasks, or None if nothing qualifies; chunks of
    the same burst must not escalate each other.  It is called only for
    a loop chunk under ``scatter_on_overflow``.
    """
    if defer is _UNDEFERRED:
        return None

    # A queue has space while it holds fewer entries than the bound.
    bound = inf if cfg.queue_bound is None else cfg.queue_bound
    local_len = queue_lengths[spawning_thread % len(queue_lengths)]

    if cfg.scatter_on_overflow and task.label == LOOP_CHUNK_LABEL:
        # Every chunk of the burst outranks the pending non-chunk work so
        # neither the issuing thread nor a thief prefers anything else.
        top = max_queue_priority()
        priority = task.priority if top is None else top + 1
        victims = _victims(spawning_thread, len(queue_lengths))
        spacious = [v for v in victims if queue_lengths[v] < bound]
        if scatter_cursor < len(spacious):
            return _placement((spacious[scatter_cursor], priority))
        return _placement((spawning_thread, priority)) if local_len < bound else None

    if local_len < bound:
        return _placement((spawning_thread, task.priority))
    if cfg.scatter_on_overflow and defer is _MUST_DEFER:
        for victim in _victims(spawning_thread, len(queue_lengths)):
            if queue_lengths[victim] < bound:
                return _placement((victim, MIN_PRIORITY))
    return None


# --- ready queues ----------------------------------------------------------


class ReadyQueues:
    """The ready queues of one simulation run, and the pick rule.

    fcfs serves every thread from one shared queue; the other policies
    give thread ``t`` queue ``t``.  Root ``i`` goes to queue ``i`` (mod
    the queue count) as a ``back`` push; one ``heapify`` seeds each heap.

    Every queue keeps two ``heapq`` min-heaps over its entries: ``near``
    yields the pick end first, ``far`` the far end.  A near entry packs
    ``(-rank, order, task)`` into one int, ``((-rank << 64) + order +
    2**63) << 32 | task`` (task ids below 2**32), so the heaps compare
    plain ints in C; a far entry is the negated near entry.  The priority
    reads back as ``-(entry >> 96)``, the task as ``entry & _TASK``.  With
    priority awareness the rank is the priority and the order ``seq``, the
    count of pushes so far; without it every rank is 0 and the order
    ``-seq`` for a pick-end push and ``seq`` for a ``back`` push (every
    fcfs push), so a queue reads as a double-ended queue and keeps no
    priorities.  Only aware ``lowest_pending`` and unaware steals from a
    queue of two or more entries read ``far`` (a lone entry is both ends):
    a push skips an empty one, a read rebuilds it from the live near
    entries.  ``index`` maps each queued task to its ``(queue, near
    entry)``; an entry is live while it equals its task's entry there.
    ``counts`` holds the live entries per queue, and bit ``q`` of
    ``filled`` is set while ``counts[q]`` is not 0, so steals walk only
    those queues, round-robin.  A pick drops the task from ``index`` and
    pops each entry it took that is on top.  Other dead entries are
    discarded on reaching a heap's top, or by a rebuild of a heap holding
    over twice its queue's live entries (plus 16).  With priority
    awareness and more than one queue, ``steals`` is one more heap holding
    every queue's near entries, pruned the same way against all live
    entries: the entries compare in the one global pick order, so a steal
    takes its top pickable entry rather than probing every victim (an own
    entry there would have been the own pick).  A pick takes the own top
    at once if it is live and pickable and no ``steals`` entry outranks
    it; else a pick filtered by a sync set smaller than the queued count
    looks the set's tasks up in ``index``, and any other searches heaps
    from the top, popping the entries it must skip aside and pushing them
    back.  The first ``max_priority`` call counts the live non-chunk
    entries per priority into ``ranks``, which pushes and picks then keep,
    with a max-heap of the priorities pruned at its top.
    """

    def __init__(self, cfg: PolicyConfig, graph, thread_count: int):
        self.specs = specs = graph.tasks
        self.priority_aware = aware = cfg.priority_aware
        self.fcfs = cfg.kind is PolicyKind.GLOBAL_FCFS
        count = 1 if self.fcfs else thread_count
        roots = graph.roots
        entries = [
            (((-specs[root].priority << 64 if aware else 0) + seq + _BIAS) << 32) | root
            for seq, root in enumerate(roots, 1)
        ]
        self.near = [entries[queue::count] for queue in range(count)]
        self.far = [[] for _ in range(count)]
        self.counts = list(map(len, self.near))
        self.steals = entries[:] if aware and count > 1 else None
        for heap in (*self.near, self.steals or []):
            heapify(heap)
        self.filled = (1 << min(count, len(roots))) - 1
        self.index = {root: (pos % count, entry) for pos, (root, entry) in enumerate(zip(roots, entries))}
        self.ranks = None  # priority -> live non-chunk entries, once max_priority is read
        self.rank_heap = []  # negated priorities, each key of ranks once
        self.seq = len(roots)

    def push(self, thread: int, task: int, priority: int, back: bool = False):
        self.seq = seq = self.seq + 1
        own = thread % len(self.near)
        rank = priority if self.priority_aware else 0
        order = seq if back or self.fcfs or self.priority_aware else -seq
        entry = (((-rank << 64) + order + _BIAS) << 32) | task
        heappush(self.near[own], entry)
        if self.steals is not None:
            heappush(self.steals, entry)
        if self.far[own]:
            heappush(self.far[own], -entry)
        self.index[task] = (own, entry)
        self.counts[own] += 1
        self.filled |= 1 << own
        if self.ranks is not None:
            self._tally(task, priority, 1)

    def _live(self, entry: int) -> bool:
        return self.index.get(entry & _TASK, _GONE)[1] == entry

    def _far(self, queue: int) -> list:
        far = self.far[queue]
        if not far and self.counts[queue]:
            far[:] = [-e for e in self.near[queue] if self._live(e)]
            heapify(far)
        return far

    def _tally(self, task: int, priority: int, step: int):
        if self.specs[task].label != LOOP_CHUNK_LABEL:
            if priority not in self.ranks:
                heappush(self.rank_heap, -priority)
            self.ranks[priority] = self.ranks.get(priority, 0) + step

    def pick(self, thread: int, movable: Callable[[int], bool], allowed=None):
        """Remove and return ``(task, stolen)`` for a free thread, or None.

        A task is pickable if ``movable(task)`` (false for a started tied
        task away from home) and, unless ``allowed`` is None, it is in the
        set ``allowed`` (a latency wait's sync set); other entries are
        skipped, never removed.  ``stolen``: the task was another queue's.

        Reference semantics take the newest pickable own entry and steal
        the oldest pickable entry from round-robin victims.
        Priority-aware semantics take the smallest pickable entry across
        all queues, preferring the own queue on priority ties.
        """
        own = thread % len(self.near)
        index, near, steals = self.index, self.near[own], self.steals
        own_best = steal_best = None
        top = near[0] if near else None
        if (
            top is not None
            and index.get(top & _TASK, _GONE)[1] == top
            and (allowed is None or top & _TASK in allowed)
            and (not steals or steals[0] >= top >> 96 << 96)
            and movable(top & _TASK)
        ):
            own_best = top  # live, pickable, and no steals entry outranks it
        elif allowed is not None and len(allowed) < len(index):
            # One pass; `movable` is asked only of an entry that beats its
            # side's best so far (keys are unique, so the result is the same).
            # An unaware steal takes the far end of the first victim in order.
            aware, count, steal_key = self.priority_aware, len(self.near), inf
            for task in index.keys() & allowed:
                queue, entry = index[task]
                if queue == own:
                    if (own_best is None or entry < own_best) and movable(task):
                        own_best = entry
                elif (key := entry if aware else ((queue - own) % count << 96) - entry) < steal_key and movable(task):
                    steal_key, steal_best = key, entry
        else:
            own_best = self._top_pickable(near, movable, allowed, None)
            if steals is not None:
                # Only a victim entry of strictly higher priority beats the own
                # one; every own entry above that bound is unpickable.
                bound = None if own_best is None else own_best >> 96 << 96
                steal_best = self._top_pickable(steals, movable, allowed, bound)
            elif own_best is None and not self.priority_aware:
                # The filled queues but own in ``_victims`` order: bits above own, then below.
                for part in (self.filled >> own + 1 << own + 1, self.filled & (1 << own) - 1):
                    while part and steal_best is None:
                        victim = (part & -part).bit_length() - 1
                        part &= part - 1
                        if self.counts[victim] == 1:  # read a lone entry off the near heap
                            steal_best = self._top_pickable(self.near[victim], movable, allowed, None)
                        else:
                            steal_best = self._top_pickable(self._far(victim), movable, allowed, None, -1)
        stolen = steal_best is not None and (own_best is None or steal_best >> 96 < own_best >> 96)
        best = steal_best if stolen else own_best
        if best is None:
            return None
        task = best & _TASK
        queue = index.pop(task)[0]
        count = self.counts[queue] = self.counts[queue] - 1
        if not count:
            self.filled &= ~(1 << queue)
        if self.ranks is not None:
            self._tally(task, -(best >> 96), -1)
        near, far = self.near[queue], self.far[queue]
        if near[0] == best:
            heappop(near)
        if far and far[0] == -best:
            heappop(far)
        if steals is not None and steals[0] == best:
            heappop(steals)
        # every pick leaves dead entries behind: rebuild a heap past twice its live entries
        get = index.get
        if len(near) > 2 * count + 16:
            near[:] = [e for e in near if get(e & _TASK, _GONE)[1] == e]
            heapify(near)
        if len(far) > 2 * count + 16:
            far[:] = [e for e in far if get(-e & _TASK, _GONE)[1] == -e]
            heapify(far)
        if steals is not None and len(steals) > 2 * len(index) + 16:
            steals[:] = [e for _, e in index.values()]
            heapify(steals)
        return task, stolen

    def _top_pickable(self, heap: list, movable, allowed, bound, sign: int = 1):
        """Smallest live pickable near entry of a heap below ``bound``
        (None: unbounded), or None; ``sign`` -1 reads a far heap.
        Unpickable entries are popped aside and pushed back afterwards."""
        get, aside = self.index.get, None
        while heap and (bound is None or heap[0] < bound):
            entry = heap[0] if sign > 0 else -heap[0]
            task = entry & _TASK
            if get(task, _GONE)[1] != entry:
                heappop(heap)
            elif (allowed is None or task in allowed) and movable(task):
                break
            else:
                aside = aside or []
                aside.append(heappop(heap))
        else:
            entry = None
        for item in aside or ():
            heappush(heap, item)
        return entry

    def any_pickable(self, movable: Callable[[int], bool], allowed=None) -> bool:
        """Would ``pick`` with the same arguments find a task?"""
        return any((allowed is None or task in allowed) and movable(task) for task in self.index)

    def lowest_pending(self, thread: int) -> Optional[int]:
        """Lowest priority pending in the thread's own queue, or None when
        it is empty or keeps no priorities."""
        if not self.priority_aware:
            return None
        far = self._far(thread % len(self.far))
        while far and not self._live(-far[0]):
            heappop(far)
        return -(-far[0] >> 96) if far else None

    def max_priority(self) -> Optional[int]:
        """Highest priority pending in any queue, loop chunks excluded
        (chunks of one burst must not escalate each other), or None when
        none qualifies or the queues keep no priorities."""
        if not self.priority_aware:
            return None
        if self.ranks is None:
            self.ranks = {}
            for _, entry in self.index.values():
                self._tally(entry & _TASK, -(entry >> 96), 1)
        heap = self.rank_heap
        while heap and not self.ranks[-heap[0]]:
            del self.ranks[-heappop(heap)]
        return -heap[0] if heap else None


# --- yield decisions -----------------------------------------------------


class Requeue(NamedTuple):
    """Where a yielding poller goes: the far end of its thread's own
    queue (``back``) or the pick end, and its priority there."""

    back: bool
    priority: int


_requeue = partial(tuple.__new__, Requeue)


def on_yield(
    cfg: PolicyConfig,
    task_priority: int,
    mode: YieldMode,
    lowest_pending: Callable[[], Optional[int]],
) -> Optional[Requeue]:
    """Decide where a poller goes after a failed completion check, or
    None to stay resident and retry (see ``ReadyQueues`` for the ends of
    a queue).  ``lowest_pending()`` returns the lowest priority pending in
    the yielding thread's own queue, or None if it is empty or keeps no
    priorities; it is called only for a fair yield.

    The reference runtime ignores the proposed yield clauses: every
    yield requeues the continuation at the front of the pickup order, so
    the owning thread takes the newest task again and consumers churn.
    A fair yield goes to the back with priority one below the lowest
    pending priority, guaranteeing every queued task starts first.  fcfs
    follows the extended rules without fair yields; its one queue puts
    every push at the far end.
    """
    if cfg.kind is PolicyKind.REFERENCE_DEQUE:
        return _requeue((False, task_priority))
    if mode is YieldMode.LATENCY:
        return None
    if cfg.fair_yield:
        lowest = lowest_pending()
        return _requeue((True, task_priority if lowest is None else lowest - 1))
    return _requeue((mode is YieldMode.THROUGHPUT, task_priority))
