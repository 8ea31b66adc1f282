"""A reference interpreter of the execution model: the engine's oracle.

``simulate(graph, cfg)`` runs the model that the README and the
``schedsim.engine`` docstring state, as directly as it can be written,
and returns the trace ``schedsim.engine.simulate`` must return, byte for
byte.  It is slow on purpose.  It keeps none of the engine's shortcuts:
no heaps, packed entries, counts, masks, futile-pick tokens, parked runs
or pass-skip rules.  It imports only the graph data model and the trace
records, and it states every policy decision and every wait's members
itself, so a bug shared with ``schedsim.policies`` or with the graph
helpers cannot hide.

The model, rule by rule:

* A thread holds a stack of task runs.  A compute occupies the thread
  for its duration; spawns, waits and polls take no time.  An undeferred
  spawn runs the child on top of its parent, which goes on once the
  child completes.
* At each timestamp, settle passes run until one changes nothing.  A
  pass visits the threads in ascending order: it ends a thread's segment
  once it is due (at its end, or a spin once its target has completed),
  and runs each free thread with a stack as far as it goes without time
  passing.  Then every idle thread, in order, tries to pick, and then
  every free thread with a stack; a thread that picks runs at once.  If
  any thread picked, settling starts again.
* A wait covers the children spawned since the previous wait of the
  same kind.  A children wait is over once each of them has completed;
  a group end once each of them and every task of their subtrees has.
* A pick takes a task the thread may run: one not yet started, one
  started on this thread, or an untied one.  Under each latency wait on
  its stack that the policy honours, the task must be in the wait's sync
  set: the members of a children wait, or the members of a group end and
  their subtrees.
* Queues without priorities are deques: a spawn or a requeue to the
  front goes in at the pick end; a root, a requeue to the back and every
  push to fcfs's one queue at the far end.  A pick takes the first entry
  it may run from its own queue, else the last such entry of the first
  victim queue in round-robin order.  With priorities, a pick takes the
  highest priority it may run anywhere, its own queue first on a tie,
  the oldest push among equals.
* Progress counts each compute that ends, each task that completes and
  each task that starts for the first time.  A failed completion check
  spins for up to ``poll_cost`` ticks, checks again and then yields; a
  poller retries a failed check only once the clock or the progress has
  moved.
* Starvation is reported when a poller fails twice with no progress in
  between and no thread can progress: each one spins in a poll, sits in
  a poll that failed since the last progress, or has its top run
  stopped at a wait or behind its undeferred child (or no stack) and
  nothing it may pick.  It is also reported when no segment runs and a
  task has not completed.  Once an outcome is set, the rest of a settle
  pass still ends the segments that are due, and nothing else moves.
* The clock moves to the next segment end.  A run completes once every
  task has, and stops at the time limit when the next end lies past
  ``max_virtual_time``.
"""

from __future__ import annotations

from schedsim.task_graph import (
    Compute,
    DeferMode,
    Spawn,
    TaskgroupEnd,
    TaskwaitChildren,
    WaitMode,
    YieldMode,
)
from schedsim.trace import EventKind, Outcome, ScheduleTrace, Segment, SegmentKind, TraceEvent

MIN_PRIORITY = -(2**63)  # where a must_defer spawn lands on a victim queue
LOOP_CHUNK = "loop-chunk"  # the label of a loop chunk, scattered by the extended policy


class Run:
    """The state of one task."""

    def __init__(self, spec):
        self.spec = spec
        self.pc = 0
        self.done = False
        self.home = None  # the thread that started it
        self.nested = False  # running undeferred on its parent's thread
        self.priority = spec.priority
        self.child = None  # the undeferred child it waits behind
        self.waiting = False  # stopped at the wait at pc
        self.scatters = 0  # loop chunks it has placed on other threads' queues
        self.spun = False  # the spin of the current failed check is over
        self.checked = None  # (progress, time) of its last failed check
        self.failed = None  # progress at the end of its last failed check


class Entry:
    """A queued task, its priority in the queue and the count of pushes
    up to its own."""

    def __init__(self, task, priority, seq):
        self.task, self.priority, self.seq = task, priority, seq


class Thread:
    def __init__(self, idx):
        self.idx = idx
        self.stack = []  # Runs, innermost last
        self.segment = None  # [task, start, end, kind, spin target] while it runs one


class Interpreter:
    def __init__(self, graph, cfg):
        policy = cfg.policy
        self.graph = graph
        self.cfg = cfg
        self.kind = policy.kind.value
        self.bound = policy.queue_bound  # None: unbounded
        self.aware = policy.priority_aware
        self.scatter = policy.scatter_on_overflow
        self.fair = policy.fair_yield
        self.latency = policy.honor_latency_wait
        self.runs = [Run(spec) for spec in graph.tasks]
        self.threads = [Thread(i) for i in range(cfg.thread_count)]
        self.queues = [[] for _ in range(1 if self.kind == "fcfs" else cfg.thread_count)]
        self.seq = 0
        for i, root in enumerate(graph.roots):
            self.push(i, root, graph.tasks[root].priority, back=True)
        self.progress = 0
        self.segments = []
        self.events = []
        self.outcome = None

    # -- the run ----------------------------------------------------------

    def run(self) -> ScheduleTrace:
        now = 0
        while True:
            self.timestamp(now)
            if self.outcome is not None:
                break
            if all(run.done for run in self.runs):
                self.outcome = Outcome.COMPLETED
                break
            ends = [th.segment[2] for th in self.threads if th.segment]
            if not ends:
                self.outcome = Outcome.STARVATION_DETECTED
                break
            now = min(ends)
            if now > self.cfg.max_virtual_time:
                self.outcome = Outcome.TIME_LIMIT_EXCEEDED
                break
        times = [s.end for s in self.segments] + [e.time for e in self.events]
        return ScheduleTrace(
            thread_count=len(self.threads),
            segments=tuple(self.segments),
            events=tuple(self.events),
            makespan=max(times, default=0),
            outcome=self.outcome,
        )

    def timestamp(self, now):
        while self.outcome is None:
            while self.settle(now):
                pass
            picked = False
            for th in self.threads:
                if not th.stack and self.pick(th, now):
                    picked = True
            for th in self.threads:
                if th.segment is None and th.stack and self.pick(th, now):
                    picked = True
            if not picked:
                return

    def settle(self, now) -> bool:
        """One settle pass; True if it changed anything."""
        changed = False
        for th in self.threads:
            if th.segment is not None:
                task, start, end, kind, target = th.segment
                if end > now and (target is None or not self.runs[target].done):
                    continue
                th.segment = None
                if now > start:
                    self.segments.append(Segment(th.idx, task, start, now, kind))
                if target is None:
                    self.runs[task].pc += 1
                    self.progress += 1
                changed = True
            elif not th.stack:
                continue
            if self.outcome is None and self.advance(th, now):
                changed = True
        return changed and self.outcome is None

    def event(self, now, kind, task, thread):
        self.events.append(TraceEvent(now, kind, task, thread))

    # -- one thread, until it stops ---------------------------------------

    def advance(self, th, now) -> bool:
        """Run the thread through zero-time steps until it starts a segment,
        stops or empties its stack; True if anything changed."""
        moved = False
        while th.stack and self.outcome is None:
            run = th.stack[-1]
            task = run.spec.id
            if run.child is not None:
                if not self.runs[run.child].done:
                    return moved
                run.child = None
                run.pc += 1
            elif run.waiting:
                if not self.wait_over(run):
                    return moved
                self.event(now, EventKind.WAIT_EXITED, task, th.idx)
                run.waiting = False
                run.pc += 1
            elif run.pc == len(run.spec.actions):
                th.stack.pop()
                run.done = True
                self.progress += 1
                self.event(now, EventKind.COMPLETED, task, th.idx)
            else:
                action = run.spec.actions[run.pc]
                if isinstance(action, Compute):
                    kind = SegmentKind.UNDEFERRED if run.nested else SegmentKind.COMPUTE
                    th.segment = [task, now, now + action.duration, kind, None]
                    return True
                if isinstance(action, Spawn):
                    self.spawn(th, run, action, now)
                elif isinstance(action, (TaskwaitChildren, TaskgroupEnd)):
                    self.event(now, EventKind.WAIT_ENTERED, task, th.idx)
                    run.waiting = True
                elif self.runs[action.target].done:  # a poll that passes
                    run.spun = False
                    run.checked = None
                    run.pc += 1
                elif run.checked == (self.progress, now):
                    return moved  # a failed poller: nothing moved since its check
                else:
                    self.check_failed(th, run, action, now)
                    if th.segment is not None:
                        return True
            moved = True
        return moved

    def check_failed(self, th, run, action, now):
        """The completion check of poll `action` failed: spin, or yield."""
        run.checked = (self.progress, now)
        if action.poll_cost > 0 and not run.spun:
            run.spun = True
            th.segment = [run.spec.id, now, now + action.poll_cost, SegmentKind.POLL_SPIN, action.target]
            return
        run.spun = False
        twice = run.failed == self.progress
        run.failed = self.progress
        if twice and self.starved():
            self.outcome = Outcome.STARVATION_DETECTED
            return
        requeue = self.on_yield(th, run, action.yield_mode)
        self.event(now, EventKind.YIELDED, run.spec.id, th.idx)
        if requeue is not None:
            th.stack.pop()
            back, run.priority = requeue
            self.push(th.idx, run.spec.id, run.priority, back)

    def spawn(self, th, run, action, now):
        child = self.runs[action.child]
        placement = self.on_spawn(th, run, child.spec, action.defer)
        self.event(now, EventKind.SPAWNED, action.child, th.idx)
        if placement is None:
            if action.defer is not DeferMode.UNDEFERRED:
                self.event(now, EventKind.THROTTLED, action.child, th.idx)
            run.child = action.child
            child.home = th.idx
            child.nested = True
            self.progress += 1
            th.stack.append(child)
            return
        thread, child.priority = placement
        self.push(thread, action.child, child.priority)
        if thread != th.idx:
            self.event(now, EventKind.SCATTERED, action.child, thread)
            if child.spec.label == LOOP_CHUNK:
                run.scatters += 1
        run.pc += 1

    # -- waits --------------------------------------------------------------

    def covered(self, run):
        """Yield the tasks the wait at `run.pc` covers: its members (every
        child spawned since the previous wait of the same kind), and for a
        group end also every task of their subtrees, read from the graph."""
        kind = type(run.spec.actions[run.pc])
        todo = []
        for action in run.spec.actions[: run.pc]:
            if type(action) is kind:
                todo = []
            elif isinstance(action, Spawn):
                todo.append(action.child)
        group = kind is TaskgroupEnd
        while todo:
            task = todo.pop()
            yield task
            if group:
                todo += [a.child for a in self.graph.tasks[task].actions if isinstance(a, Spawn)]

    def wait_over(self, run) -> bool:
        return all(self.runs[task].done for task in self.covered(run))

    def stopped(self, run) -> bool:
        if run.child is not None:
            return not self.runs[run.child].done
        return run.waiting and not self.wait_over(run)

    # -- queues and picks -------------------------------------------------------

    def queue_of(self, thread):
        return self.queues[thread % len(self.queues)]

    def push(self, thread, task, priority, back=False):
        self.seq += 1
        queue = self.queue_of(thread)
        entry = Entry(task, priority, self.seq)
        if back or self.aware or self.kind == "fcfs":
            queue.append(entry)
        else:
            queue.insert(0, entry)

    def victims(self, thread):
        count = len(self.queues)
        return [(thread + off) % count for off in range(1, count)]

    def may_run(self, th):
        """The predicate a pick by `th` filters entries with."""
        allowed = None
        for run in th.stack:
            if run.waiting and self.latency and run.spec.actions[run.pc].mode is WaitMode.LATENCY:
                tasks = set(self.covered(run))
                allowed = tasks if allowed is None else allowed & tasks
        runs = self.runs

        def ok(entry):
            run = runs[entry.task]
            if run.home is not None and run.home != th.idx and run.spec.tied:
                return False
            return allowed is None or entry.task in allowed

        return ok

    def choose(self, th):
        """The entry `th` picks and whether it is stolen, or None."""
        ok = self.may_run(th)
        own = self.queue_of(th.idx)
        if self.aware:
            found = [e for queue in self.queues for e in queue if ok(e)]
            if not found:
                return None
            top = max(e.priority for e in found)
            mine = [e for e in own if ok(e) and e.priority == top]
            if mine:
                return min(mine, key=lambda e: e.seq), False
            return min((e for e in found if e.priority == top), key=lambda e: e.seq), True
        for entry in own:
            if ok(entry):
                return entry, False
        for victim in self.victims(th.idx):
            for entry in reversed(self.queues[victim]):
                if ok(entry):
                    return entry, True
        return None

    def pick(self, th, now) -> bool:
        if self.outcome is not None or not any(self.queues):  # empty queues: nothing to scan
            return False
        choice = self.choose(th)
        if choice is None:
            return False
        entry, stolen = choice
        for queue in self.queues:
            if entry in queue:
                queue.remove(entry)
        run = self.runs[entry.task]
        if stolen:
            self.event(now, EventKind.STOLEN, entry.task, th.idx)
        if run.home is None:
            run.home = th.idx
            self.progress += 1
        run.nested = False
        th.stack.append(run)
        self.advance(th, now)
        return True

    # -- starvation -----------------------------------------------------------

    def starved(self) -> bool:
        for th in self.threads:
            if th.segment is not None:
                if th.segment[3] is not SegmentKind.POLL_SPIN:
                    return False  # a compute ends, and that is progress
                continue
            top = th.stack[-1] if th.stack else None
            if top is not None and top.failed == self.progress:
                continue
            if top is not None and not self.stopped(top):
                return False
            ok = self.may_run(th)
            if any(ok(e) for queue in self.queues for e in queue):
                return False
        return True

    # -- policy decisions --------------------------------------------------------

    def has_space(self, queue) -> bool:
        return self.bound is None or len(queue) < self.bound

    def on_spawn(self, th, run, spec, defer):
        """Where a deferred child goes, ``(thread, priority)``, or None to
        run it undeferred: requested, or because the queues are full."""
        if defer is DeferMode.UNDEFERRED:
            return None
        room = self.has_space(self.queue_of(th.idx))
        spacious = [v for v in self.victims(th.idx) if self.has_space(self.queues[v])]
        if self.scatter and spec.label == LOOP_CHUNK:
            # above every queued task that is not a chunk
            pending = [e.priority for q in self.queues for e in q if self.runs[e.task].spec.label != LOOP_CHUNK]
            priority = max(pending) + 1 if self.aware and pending else spec.priority
            if run.scatters < len(spacious):
                return spacious[run.scatters], priority
            return (th.idx, priority) if room else None
        if room:
            return th.idx, spec.priority
        if self.scatter and defer is DeferMode.MUST_DEFER and spacious:
            return spacious[0], MIN_PRIORITY
        return None

    def on_yield(self, th, run, mode):
        """Where a failed poller goes, ``(back, priority)``, or None to stay."""
        if self.kind == "reference":
            return False, run.priority
        if mode is YieldMode.LATENCY:
            return None
        if self.fair:
            own = [e.priority for e in self.queue_of(th.idx)] if self.aware else []
            return True, min(own) - 1 if own else run.priority
        return mode is YieldMode.THROUGHPUT, run.priority


def simulate(graph, cfg) -> ScheduleTrace:
    """The trace of `graph` under `cfg` (a ``SimConfig``); `graph` must be valid."""
    return Interpreter(graph, cfg).run()
