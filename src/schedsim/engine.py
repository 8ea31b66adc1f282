"""Deterministic discrete-event simulator for task scheduling.

The engine advances a virtual clock over a fixed set of worker threads,
executes task actions, consults the configured policy at every task
scheduling point and emits a schedule trace.  Everything is integer
arithmetic over a fixed processing order, so a (graph, config) pair maps
to exactly one trace on any platform.  It emits the records of
``schedsim.trace``, and re-exports them.

Execution model
---------------
Threads hold a stack of task runs.  A compute action occupies the
thread for its full duration (no preemption); spawns, polls and waits
are task scheduling points.  An undeferred spawn suspends the parent
run and runs the child on top of it.  A thread whose top run is
suspended in a wait (or between poll retries) acts as a helper and may
pick other ready work; a latency wait restricts helping to the wait's
own synchronization set.  At every timestamp the engine processes, in
ascending thread order: due segment completions and zero-time
transitions first, in passes repeated to a fixed point, then picks by
idle threads, then picks by helpers, and settles again after any pick.
That order fixes every trace byte, and the hot path keeps it while it
skips work that cannot change a byte: the pick passes run only while
some queue holds an entry, as a pick from empty queues finds nothing; a
settle pass skips a free thread whose top run is parked (stopped at a
wait or behind an undeferred child) since the last completion, as only
a completion can move it; and a settle pass repeats, and settling
restarts after picks, only if a task completed since it began or a
completion check has failed at this timestamp, as every duration is at
least 1 and a failed poller moves only on new progress.

Poll cadence: a completion check that succeeds is free.  A failed check
spins for up to ``poll_cost`` ticks (the spin ends early if the target
completes), re-checks, and then yields per policy.  A poller with
nothing else to run sleeps until the next global event instead of
spinning tick by tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat

from . import policies as pol
from .policies import ConfigError, PolicyConfig
from .task_graph import (
    DEFAULT_MAX_VIRTUAL_TIME,
    Compute,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskgroupEnd,
    TaskwaitChildren,
    WaitMode,
    _collector_paused,
    validate,
    wait_members,
)
# The trace layer, re-exported for callers that read it from here.
from .trace import MAX_THREADS, EventKind, Outcome, ScheduleTrace, Segment, SegmentKind, TraceEvent


# Enum members as globals: reading one off its class is a descriptor call.
_COMPUTE, _POLL_SPIN, _UNDEFERRED = SegmentKind.COMPUTE, SegmentKind.POLL_SPIN, SegmentKind.UNDEFERRED
_SPAWNED, _STOLEN, _SCATTERED, _THROTTLED = EventKind.SPAWNED, EventKind.STOLEN, EventKind.SCATTERED, EventKind.THROTTLED
_YIELDED, _WAIT_ENTERED, _WAIT_EXITED = EventKind.YIELDED, EventKind.WAIT_ENTERED, EventKind.WAIT_EXITED
_COMPLETED, _LATENCY, _RUN_UNDEFERRED = EventKind.COMPLETED, WaitMode.LATENCY, DeferMode.UNDEFERRED


class EngineError(Exception):
    pass


class InvalidGraphError(EngineError):
    def __init__(self, violations):
        super().__init__(f"graph fails validation: {violations[:5]}")
        self.violations = violations


@dataclass(frozen=True)
class SimConfig:
    thread_count: int
    policy: PolicyConfig
    max_virtual_time: int = DEFAULT_MAX_VIRTUAL_TIME

    def __post_init__(self):
        if type(self.thread_count) is not int:
            raise ConfigError(f"thread_count must be an int, got {self.thread_count!r}")
        if not 1 <= self.thread_count <= MAX_THREADS:
            raise ConfigError(f"thread_count must be in [1, {MAX_THREADS}]")
        if type(self.max_virtual_time) is not int or self.max_virtual_time <= 0:
            raise ConfigError("max_virtual_time must be a positive int")


class _Run:
    __slots__ = (
        "spec",
        "pc",
        "completed",
        "home",
        "nested",
        "priority",
        "parent",
        "pending",
        "open",
        "chunk_scatters",
        "blocked_child",
        "wait",
        "poll_token",
        "poll_failed_at",
        "parked",
    )

    def __init__(self, spec):
        self.spec = spec
        self.pc = 0
        self.completed = False
        self.home = None  # the thread that started the run; None until then
        self.nested = False  # pushed by an undeferred spawn, not picked
        self.priority = spec.priority
        self.parent = None
        self.pending = 0  # spawned children that have not completed
        # This run while it is not completed, plus each child whose subtree
        # is not done: 0 once the subtree has completed, 1 at a settled group.
        self.open = 1
        self.chunk_scatters = 0
        self.blocked_child = None
        self.wait = None  # the wait action the run is stopped at
        self.poll_token = None
        self.poll_failed_at = -1  # engine progress at the last failed check
        # completed_count when it last stopped at a wait or behind its undeferred child: only a
        # completion lowers `pending` and `open` or completes a child, so it stays stopped till then.
        self.parked = -1


class _Thread:
    __slots__ = (
        "idx",
        "movable",
        "lowest_pending",
        "stack",
        "filters",
        "futile",
        "seg_task",
        "seg_start",
        "seg_end",
        "seg_kind",
        "seg_target",
    )

    def __init__(self, idx, movable, lowest_pending):
        self.idx = idx
        self.movable = movable  # may this thread take a task, latency waits aside?
        self.lowest_pending = lowest_pending  # for a fair yield: see pol.on_yield
        self.stack = []
        # One narrowed sync set per latency wait on the stack, innermost
        # last: a run in a wait neither yields nor migrates, and its wait
        # exits only while it is the top of this stack.
        self.filters = []
        # ready.seq at the last failed pick, -1 once `filters` changes: picks
        # only remove entries and queued tasks keep `home`, so a pick fails
        # while the count of pushes matches.
        self.futile = -1
        self.seg_task = None
        self.seg_start = 0
        self.seg_end = 0
        self.seg_kind = None
        self.seg_target = None  # poll target while spinning


class _Engine:
    def __init__(self, graph: TaskGraph, cfg: SimConfig):
        self.graph = graph
        self.cfg = cfg
        self.policy = cfg.policy
        # The policy's wait rule: only a latency wait may idle.
        self.idle_latency = cfg.policy.honor_latency_wait
        self.runs = [_Run(spec) for spec in graph.tasks]
        self.ready = ready = pol.ReadyQueues(cfg.policy, graph, cfg.thread_count)
        self.threads = [_Thread(i, self._movable(i), partial(ready.lowest_pending, i)) for i in range(cfg.thread_count)]
        self.segments = []
        self.events = []
        self.progress = 0
        self.completed_count = 0
        self.failed_poll_at = -1  # the last timestamp at which a completion check failed
        self.outcome = None

    # -- wait bookkeeping ------------------------------------------------

    def _wait_allowed_tasks(self, run: _Run) -> set:
        """The tasks a helper in the wait at `run.pc` may pick: the children
        it covers (``wait_members``), or for a group end their subtrees read
        from the graph, which also hold what members spawn after the wait is
        entered; a queued task's ancestors have all been spawned, so for the
        tasks a pick looks at this is the spawned subtree."""
        members = wait_members(run.spec, run.pc)
        if isinstance(run.wait, TaskwaitChildren):
            return set(members)
        tasks = self.graph.tasks
        allowed = set()
        stack = members
        while stack:
            cur = stack.pop()
            allowed.add(cur)
            stack.extend(a.child for a in tasks[cur].actions if isinstance(a, Spawn))
        return allowed

    # -- starvation accounting ---------------------------------------------

    def _movable(self, thread_idx):
        """Predicate over task ids: may this thread take the task, latency
        waits aside?  A started tied task stays on its home thread."""
        runs = self.runs

        def movable(task_id) -> bool:
            run = runs[task_id]
            return run.home is None or run.home == thread_idx or not run.spec.tied

        return movable

    def _starved_round(self) -> bool:
        """True when no thread can progress: each one spins in a poll, sits
        in a poll that failed since the last progress, or has nothing it
        may pick.  The check runs only once a poller has failed twice with
        no progress in between, so every free thread has been run to where
        it stops since then: one whose top run has not failed a poll since
        the last progress has it at an unsatisfied wait or behind an
        undeferred child that has not completed, and only a pick moves it."""
        for th in self.threads:
            if th.seg_task is not None:
                if th.seg_kind is not _POLL_SPIN:
                    return False
                continue
            if th.stack and th.stack[-1].poll_failed_at == self.progress:
                continue
            if self.ready.any_pickable(th.movable, th.filters[-1] if th.filters else None):
                return False
        return True

    # -- task completion ---------------------------------------------------

    def _complete_task(self, th: _Thread, run: _Run, now: int):
        th.stack.pop()
        run.completed = True
        if run.parent is not None:
            run.parent.pending -= 1
        # Each run's count reaches 0 once, so the cascade is linear overall.
        node = run
        node.open -= 1
        while node.open == 0 and node.parent is not None:
            node = node.parent
            node.open -= 1
        self.completed_count += 1
        self.progress += 1
        self.events.append((now, _COMPLETED, run.spec.id, th.idx))

    # -- the per-thread state machine ----------------------------------------

    def _run_thread(self, th: _Thread, now: int) -> bool:
        """Step a thread: end its segment, if it holds one, then advance it
        through zero-time transitions until it starts a segment, blocks or
        empties its stack.  A thread that holds a segment is stepped only
        once that segment is due.  Returns True if any state changed."""
        task = th.seg_task
        progressed = task is not None
        spun = False  # the top run ended its own poll spin and has not checked its poll since
        if progressed:
            kind = th.seg_kind
            spun = kind is _POLL_SPIN
            if now > th.seg_start:
                self.segments.append((th.idx, task, th.seg_start, now, kind))
            if not spun:
                self.runs[task].pc += 1
                self.progress += 1
            th.seg_task = th.seg_kind = th.seg_target = None
        if self.outcome is not None:
            return progressed
        stack = th.stack
        events = self.events
        idx = th.idx
        while stack:
            run = stack[-1]

            if run.blocked_child is not None:
                if not self.runs[run.blocked_child].completed:
                    run.parked = self.completed_count
                    break
                run.blocked_child = None
                run.pc += 1
                progressed = True
                continue

            wait = run.wait
            if wait is not None:
                # A children wait holds once every child has completed, a
                # group wait once only the run itself is open: the children
                # spawned before the previous group end had done their
                # subtrees when it exited.
                if run.pending > 0 if type(wait) is TaskwaitChildren else run.open > 1:
                    run.parked = self.completed_count
                    break
                events.append((now, _WAIT_EXITED, run.spec.id, idx))
                if wait.mode is _LATENCY and self.idle_latency:
                    th.filters.pop()
                    th.futile = -1
                run.wait = None
                run.pc += 1
                progressed = True
                continue

            actions = run.spec.actions
            if run.pc >= len(actions):
                self._complete_task(th, run, now)
                progressed = True
                continue

            action = actions[run.pc]
            kind = type(action)

            if kind is Compute:
                th.seg_task = run.spec.id
                th.seg_start = now
                th.seg_end = now + action.duration
                th.seg_kind = _UNDEFERRED if run.nested else _COMPUTE
                return True

            if kind is Spawn:
                progressed = True
                self._do_spawn(th, run, action, now)
                continue

            if kind is TaskwaitChildren or kind is TaskgroupEnd:
                events.append((now, _WAIT_ENTERED, run.spec.id, idx))
                run.wait = action
                if action.mode is _LATENCY and self.idle_latency:
                    allowed = self._wait_allowed_tasks(run)
                    th.filters.append(allowed & th.filters[-1] if th.filters else allowed)
                    th.futile = -1
                progressed = True
                continue

            if kind is PollOutcome:
                target = self.runs[action.target]
                if target.completed:
                    spun = False
                    run.poll_token = None
                    run.pc += 1
                    progressed = True
                    continue
                token = (self.progress, now)
                if run.poll_token == token:
                    break  # nothing changed since the last failed check
                run.poll_token = token
                if action.poll_cost > 0 and not spun:
                    th.seg_task = run.spec.id
                    th.seg_start = now
                    th.seg_end = now + action.poll_cost
                    th.seg_kind = _POLL_SPIN
                    th.seg_target = action.target
                    return True
                spun = False
                # A poller that failed twice with no progress in between has seen a full
                # round; if every other thread is likewise stuck, nothing can progress.
                full_round = run.poll_failed_at == self.progress
                run.poll_failed_at = self.progress
                self.failed_poll_at = now
                if full_round and self._starved_round():
                    self.outcome = Outcome.STARVATION_DETECTED
                    break
                requeue = pol.on_yield(self.policy, run.priority, action.yield_mode, th.lowest_pending)
                events.append((now, _YIELDED, run.spec.id, idx))
                progressed = True
                if requeue is None:
                    break  # stay resident; retry after at most one pick
                stack.pop()
                back, run.priority = requeue
                self.ready.push(idx, run.spec.id, run.priority, back)
                continue

            raise EngineError(f"unknown action {action!r}")
        return progressed

    def _do_spawn(self, th: _Thread, run: _Run, action: Spawn, now: int):
        child = self.runs[action.child]
        child_spec = child.spec
        task = child_spec.id
        ready = self.ready
        placement = pol.on_spawn(
            self.policy, th.idx, child_spec, ready.counts, action.defer, run.chunk_scatters, ready.max_priority
        )
        events = self.events
        events.append((now, _SPAWNED, task, th.idx))
        child.parent = run
        run.pending += 1
        run.open += 1

        if placement is None:  # run undeferred: requested, or else throttled
            if action.defer is not _RUN_UNDEFERRED:
                events.append((now, _THROTTLED, task, th.idx))
            run.blocked_child = task
            child.home = th.idx
            child.nested = True
            self.progress += 1
            th.stack.append(child)
            return
        thread, child.priority = placement
        ready.push(thread, task, child.priority)
        if thread != th.idx:
            events.append((now, _SCATTERED, task, thread))
            if child_spec.label == pol.LOOP_CHUNK_LABEL:
                run.chunk_scatters += 1
        run.pc += 1

    # -- picking ---------------------------------------------------------------

    def _try_pick(self, th: _Thread, now: int) -> bool:
        if self.outcome is not None:
            return False
        ready = self.ready
        if th.futile == ready.seq:
            return False
        picked = ready.pick(th.idx, th.movable, th.filters[-1] if th.filters else None)
        if picked is None:
            th.futile = ready.seq
            return False
        task_id, stolen = picked
        run = self.runs[task_id]
        if stolen:
            self.events.append((now, _STOLEN, task_id, th.idx))
        if run.home is None:
            run.home = th.idx
            self.progress += 1
        run.nested = False
        th.stack.append(run)
        self._run_thread(th, now)
        return True

    # -- main loop ----------------------------------------------------------------

    def _process(self, now: int):
        """Run timestamp `now` to a fixed point; return the next one, or None once the run has an outcome."""
        threads, runs, queued = self.threads, self.runs, self.ready.index
        settle = True
        while self.outcome is None:
            done = self.completed_count
            if settle:
                # Settle all due segments and zero-time transitions before anyone
                # picks: wait exits and the spawns they trigger must be visible to
                # every pick decision at this timestamp.  A segment is due at its
                # end, a spin also once its target has completed.  The repeat rule
                # (see the module docstring) is written here and after the picks.
                changed = False
                for th in threads:
                    if th.seg_task is not None:
                        if th.seg_end > now and (th.seg_kind is not _POLL_SPIN or not runs[th.seg_target].completed):
                            continue
                    elif not th.stack or th.stack[-1].parked == self.completed_count:
                        continue
                    if self._run_thread(th, now):
                        changed = True
                if changed and (self.completed_count != done or self.failed_poll_at == now):
                    continue
            # Picks run only while some queue holds an entry (a pick may empty them).
            if not queued:
                break
            picked = False
            for th in threads:  # idle threads pick first
                if not th.stack and queued and self._try_pick(th, now):
                    picked = True
            for th in threads:  # then wait/poll helpers
                if th.seg_task is None and th.stack and queued and self._try_pick(th, now):
                    picked = True
            if not picked:
                break
            settle = self.completed_count != done or self.failed_poll_at == now
        if self.outcome is not None:
            return None
        nxt = None  # the next segment end: at a fixed point each ends after `now`
        for th in threads:
            if th.seg_task is not None and (nxt is None or th.seg_end < nxt):
                nxt = th.seg_end
        if self.completed_count == len(self.runs):
            self.outcome = Outcome.COMPLETED
        elif nxt is None:
            # no future event can unblock anything: pollers, or waiters behind them, starve
            self.outcome = Outcome.STARVATION_DETECTED
        elif nxt > self.cfg.max_virtual_time:
            self.outcome = Outcome.TIME_LIMIT_EXCEEDED
        else:
            return nxt

    def run(self) -> ScheduleTrace:
        now = 0
        while now is not None:
            now = self._process(now)
        # Both lists are appended only at `now`, which never decreases.
        segments, events = self.segments, self.events
        makespan = max(segments[-1][3] if segments else 0, events[-1][0] if events else 0)  # end, time
        # The engine appends plain tuples; type them in one C pass.
        return ScheduleTrace(
            thread_count=self.cfg.thread_count,
            segments=tuple(map(tuple.__new__, repeat(Segment), segments)),
            events=tuple(map(tuple.__new__, repeat(TraceEvent), events)),
            makespan=makespan,
            outcome=self.outcome,
        )


@_collector_paused()
def simulate(graph: TaskGraph, cfg: SimConfig) -> ScheduleTrace:
    """Run one deterministic simulation of `graph` under `cfg`."""
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    return _Engine(graph, cfg).run()

