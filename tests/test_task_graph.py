import json
from dataclasses import dataclass

import pytest

from schedsim import policies as pol
from schedsim.engine import InvalidGraphError, SimConfig, simulate
from schedsim.task_graph import (
    Compute,
    CyclicDependencyError,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskgroupEnd,
    TaskwaitChildren,
    Violation,
    WaitMode,
    YieldMode,
    _compute,
    critical_path,
    graph_from_json,
    graph_to_json,
    spawn_parents,
    total_work,
    validate,
    wait_members,
)


@dataclass(frozen=True)
class Slow(Compute):
    """An action subclass: the engine and the file writer dispatch on the
    exact action type, so this is not a Compute to them."""


def chain_graph():
    return TaskGraph(
        tasks=(
            TaskSpec(id=0, actions=(Compute(5), Spawn(1), TaskwaitChildren())),
            TaskSpec(id=1, actions=(Compute(3),)),
        ),
        roots=(0,),
    )


class TestValidate:
    def test_empty_graph_is_valid(self):
        assert validate(TaskGraph(tasks=(), roots=())) == []

    def test_chain_is_valid(self):
        assert validate(chain_graph()) == []

    def test_duplicate_spawn(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Spawn(1),)),
                TaskSpec(id=1, actions=(Compute(1),)),
                TaskSpec(id=2, actions=(Spawn(1),)),
            ),
            roots=(0, 2),
        )
        kinds = [(v.kind, v.task) for v in validate(g)]
        assert ("DuplicateSpawn", 1) in kinds

    def test_self_spawn(self):
        g = TaskGraph(tasks=(TaskSpec(id=0, actions=(Spawn(0),)),), roots=(0,))
        kinds = [(v.kind, v.task) for v in validate(g)]
        assert ("SelfSpawn", 0) in kinds

    def test_unspawned_non_root(self):
        g = TaskGraph(
            tasks=(TaskSpec(id=0, actions=()), TaskSpec(id=1, actions=())),
            roots=(0,),
        )
        kinds = [(v.kind, v.task) for v in validate(g)]
        assert ("UnspawnedTask", 1) in kinds

    def test_root_also_spawned(self):
        g = TaskGraph(
            tasks=(TaskSpec(id=0, actions=(Spawn(1),)), TaskSpec(id=1, actions=())),
            roots=(0, 1),
        )
        kinds = [(v.kind, v.task) for v in validate(g)]
        assert ("RootAlsoSpawned", 1) in kinds

    def test_unknown_poll_target(self):
        g = TaskGraph(
            tasks=(TaskSpec(id=0, actions=(PollOutcome(7),)),),
            roots=(0,),
        )
        kinds = [v.kind for v in validate(g)]
        assert "UnknownPollTarget" in kinds

    def test_spawn_two_cycle(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(1),)),
                TaskSpec(id=1, actions=(Spawn(2),)),
                TaskSpec(id=2, actions=(Spawn(1),)),
            ),
            roots=(0,),
        )
        assert validate(g) == [Violation("SpawnCycle", 1), Violation("SpawnCycle", 2)]

    def test_spawn_three_cycle_with_tail(self):
        # 4 -> 2 -> 5 -> 4 is the cycle; 5 spawns the tail 1 -> 3, which
        # hangs off the cycle without being on it.
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(1),)),
                TaskSpec(id=1, actions=(Spawn(3),)),
                TaskSpec(id=2, actions=(Spawn(5),)),
                TaskSpec(id=3, actions=(Compute(0),)),
                TaskSpec(id=4, actions=(Spawn(2),)),
                TaskSpec(id=5, actions=(Spawn(4), Spawn(1))),
            ),
            roots=(0,),
        )
        assert validate(g) == [
            Violation("NonPositiveDuration", 3, "0"),
            Violation("SpawnCycle", 2),
            Violation("SpawnCycle", 4),
            Violation("SpawnCycle", 5),
        ]

    def test_self_spawn_is_also_a_cycle(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(1),)),
                TaskSpec(id=1, actions=(Spawn(1),)),
            ),
            roots=(0,),
        )
        assert validate(g) == [Violation("SelfSpawn", 1), Violation("SpawnCycle", 1)]

    def test_validate_is_pure(self):
        g = chain_graph()
        first = validate(g)
        second = validate(g)
        assert first == second == []


def wrong_type_graphs():
    """(graph, *violations): one field of a valid two-task graph holds a
    value of another type, each equal to a valid value where one exists."""
    def graph(*, root=0, child=1, tied=True, label="", priority=0, id=1, duration=2, target=1,
              cost=0, defer=DeferMode.RUNTIME_CHOICE, yield_mode=YieldMode.DEFAULT, mode=WaitMode.LATENCY):
        actions = (Spawn(child, defer), PollOutcome(target, yield_mode, cost), TaskgroupEnd(mode))
        return TaskGraph(
            (TaskSpec(0, actions, priority, tied, label), TaskSpec(id, (Compute(duration),))),
            (root,),
        )

    return [
        (graph(duration=2.5), Violation("WrongType", 1, "duration: expected int, got 2.5")),
        (graph(duration=True), Violation("WrongType", 1, "duration: expected int, got True")),
        (graph(child=1.0), Violation("WrongType", 0, "child: expected int, got 1.0"), Violation("UnspawnedTask", 1)),
        (graph(target=True), Violation("WrongType", 0, "target: expected int, got True")),
        (graph(cost=False), Violation("WrongType", 0, "poll_cost: expected int, got False")),
        (graph(priority=0.0), Violation("WrongType", 0, "priority: expected int, got 0.0")),
        (graph(priority=False), Violation("WrongType", 0, "priority: expected int, got False")),
        (graph(tied=1), Violation("WrongType", 0, "tied: expected bool, got 1")),
        (graph(label=None), Violation("WrongType", 0, "label: expected str, got None")),
        (graph(root=False), Violation("WrongType", -1, "root 0: expected int, got False")),
        (graph(id=True), Violation("WrongType", 1, "id: expected int, got True")),
        (graph(defer="undeferred"), Violation("WrongType", 0, "defer: expected DeferMode, got 'undeferred'")),
        (graph(yield_mode="latency"), Violation("WrongType", 0, "yield_mode: expected YieldMode, got 'latency'")),
        (graph(mode="throughput"), Violation("WrongType", 0, "mode: expected WaitMode, got 'throughput'")),
    ]


class TestWrongType:
    """validate holds an in-memory graph to the decoders' type rule, so no
    graph it passes is written to a file that reads back otherwise."""

    def test_fractional_duration_is_rejected_not_truncated(self):
        g = TaskGraph((TaskSpec(0, (Compute(2.5),)),), (0,))
        assert validate(g) == [Violation("WrongType", 0, "duration: expected int, got 2.5")]
        with pytest.raises(InvalidGraphError):
            simulate(g, SimConfig(thread_count=1, policy=pol.reference()))

    @pytest.mark.parametrize("case", wrong_type_graphs(), ids=lambda case: case[1].detail)
    def test_each_decoded_field_is_checked(self, case):
        g, *violations = case
        assert validate(g) == violations
        with pytest.raises(TypeError) as info:
            graph_to_json(g)  # never truncated or garbled
        assert str(info.value) == f"task {violations[0].task}, {violations[0].detail}"

    @pytest.mark.parametrize(
        "tasks, violations",
        [
            (
                (TaskSpec(1, (Compute(2.5),)),),
                [Violation("BadId", 1, "expected id 0"), Violation("WrongType", 0, "duration: expected int, got 2.5")],
            ),
            (
                (TaskSpec(0, (Compute(True),)), TaskSpec(5, (Compute(2),))),
                [Violation("BadId", 5, "expected id 1"), Violation("WrongType", 0, "duration: expected int, got True")],
            ),
        ],
        ids=["float-after-bad-id", "bool-before-bad-id"],
    )
    def test_fields_are_checked_whatever_the_ids(self, tasks, violations):
        # a bad id stops the structural checks, not the type checks: the
        # file would write 2 and 1 for these durations
        g = TaskGraph(tasks, (0,))
        assert validate(g) == violations
        with pytest.raises(TypeError, match="^task 0, duration: expected int"):
            graph_to_json(g)

    def test_the_valid_graph_of_those_cases_passes(self):
        actions = (Spawn(1), PollOutcome(1), TaskgroupEnd(WaitMode.LATENCY))
        g = TaskGraph((TaskSpec(0, actions), TaskSpec(1, (Compute(2),))), (0,))
        assert validate(g) == []
        assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize(
        "tasks, violation",
        [
            (({"id": 0},), Violation("WrongType", 0, "task: expected TaskSpec, got {'id': 0}")),
            (
                (TaskSpec(0, (Spawn(1),)), (1, (Compute(1),))),
                Violation("WrongType", 1, "task: expected TaskSpec, got (1, (Compute(duration=1),))"),
            ),
            ((TaskSpec(0, ("oops", Compute(1))),), Violation("WrongType", 0, "action: expected an action, got 'oops'")),
            (
                (TaskSpec(0, (Compute(1), TaskgroupEnd)),),
                Violation("WrongType", 0, f"action: expected an action, got {TaskgroupEnd!r}"),
            ),
            (
                (TaskSpec(0, (Slow(5), Compute(2))),),
                Violation("WrongType", 0, "action: expected an action, got Slow(duration=5)"),
            ),
        ],
        ids=["dict-task", "tuple-task", "text-action", "action-class", "action-subclass"],
    )
    def test_tasks_and_actions_of_the_wrong_type_are_named(self, tasks, violation):
        # named by the task's position, before the run could fail mid-way
        g = TaskGraph(tasks, (0,))
        assert validate(g) == [violation]
        with pytest.raises(InvalidGraphError):
            simulate(g, SimConfig(thread_count=1, policy=pol.reference()))
        with pytest.raises(TypeError, match=f"^task {violation.task}, {violation.detail[:6]}"):
            graph_to_json(g)

    def test_a_mode_given_as_its_text_is_rejected_not_simulated_apart(self):
        # the file of this graph reads back an undeferred spawn, which the
        # engine tells from the text "undeferred" by identity
        g = TaskGraph((TaskSpec(0, (Spawn(1, "undeferred"), Compute(1))), TaskSpec(1, (Compute(5),))), (0,))
        assert [v.kind for v in validate(g)] == ["WrongType"]
        with pytest.raises(InvalidGraphError):
            simulate(g, SimConfig(thread_count=2, policy=pol.reference()))


def cyclic_graph():
    return TaskGraph(
        tasks=(
            TaskSpec(id=0, actions=(Compute(1),)),
            TaskSpec(id=1, actions=(Spawn(2),)),
            TaskSpec(id=2, actions=(Spawn(1),)),
        ),
        roots=(0,),
    )


class TestPerGraphCache:
    """validate and spawn_parents run once per graph; each call hands out
    its own copy, and the cache is invisible to ==, hash, repr and JSON."""

    def test_validate_returns_equal_distinct_lists(self):
        g = cyclic_graph()
        first, second = validate(g), validate(g)
        assert first == second and first
        assert first is not second

    def test_changing_one_result_leaves_the_next(self):
        g = cyclic_graph()
        first = validate(g)
        expected = list(first)
        first.clear()
        assert validate(g) == expected
        parents = spawn_parents(g)
        parents.clear()
        assert spawn_parents(g) == {1: (2, 0), 2: (1, 0)}

    def test_simulate_rejects_the_same_violations_every_call(self):
        g = cyclic_graph()
        cfg = SimConfig(thread_count=2, policy=pol.reference())
        raised = []
        for _ in range(3):
            with pytest.raises(InvalidGraphError) as info:
                simulate(g, cfg)
            raised.append(info.value.violations)
        assert raised[0] == raised[1] == raised[2] == validate(cyclic_graph())

    @pytest.mark.parametrize("make", [chain_graph, cyclic_graph])
    def test_identity_unchanged_after_validation(self, make):
        g, fresh = make(), make()
        before = (hash(g), repr(g), graph_to_json(g))
        validate(g)
        spawn_parents(g)
        if not validate(g):
            critical_path(g)
        assert g == fresh and fresh == g
        assert (hash(g), repr(g), graph_to_json(g)) == before == (
            hash(fresh), repr(fresh), graph_to_json(fresh)
        )


class TestTotalWork:
    def test_two_tasks(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(5),)),
                TaskSpec(id=1, actions=(Compute(3),)),
            ),
            roots=(0, 1),
        )
        assert total_work(g) == 8

    def test_empty(self):
        assert total_work(TaskGraph(tasks=(), roots=())) == 0

    def test_interleaved_spawn(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(2), Spawn(1), Compute(4))),
                TaskSpec(id=1, actions=(Compute(1),)),
            ),
            roots=(0,),
        )
        assert total_work(g) == 7

    def test_poll_cost_excluded(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1, poll_cost=100), Compute(2))),
                TaskSpec(id=1, actions=(Compute(1),)),
            ),
            roots=(0, 1),
        )
        assert total_work(g) == 3


class TestWaitMembers:
    def test_each_kind_covers_the_children_since_its_previous_wait(self):
        a, b, c = 1, 2, 3
        spec = TaskSpec(
            id=0,
            actions=(
                Spawn(a), TaskwaitChildren(), Spawn(b), TaskgroupEnd(),
                Spawn(c), TaskwaitChildren(), TaskgroupEnd(),
            ),
        )
        waits = [idx for idx, action in enumerate(spec.actions) if not isinstance(action, Spawn)]
        # The second group end's members cross the child wait before it.
        assert [wait_members(spec, idx) for idx in waits] == [[a], [a, b], [b, c], [c]]

    @pytest.mark.parametrize("wait", [TaskwaitChildren, TaskgroupEnd])
    def test_each_child_is_covered_once(self, wait):
        n = 50
        spec = TaskSpec(id=0, actions=[x for i in range(n) for x in (Spawn(i + 1), wait())])
        members = [wait_members(spec, 2 * i + 1) for i in range(n)]
        assert members == [[i + 1] for i in range(n)]
        assert sum(map(len, members)) == n


class TestCriticalPath:
    def test_single_chain_through_child(self):
        assert critical_path(chain_graph()) == (8, [0, 1])

    def test_parent_dominates(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(5), Spawn(1), Compute(10), TaskwaitChildren())),
                TaskSpec(id=1, actions=(Compute(3),)),
            ),
            roots=(0,),
        )
        assert critical_path(g) == (15, [0])

    def test_fork_join_with_tail(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(2), Spawn(1), Spawn(2), TaskwaitChildren(), Compute(1))),
                TaskSpec(id=1, actions=(Compute(4),)),
                TaskSpec(id=2, actions=(Compute(9),)),
            ),
            roots=(0,),
        )
        length, path = critical_path(g)
        assert length == 12
        assert path == [0, 2, 0]

    def test_undeferred_spawn_serializes(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(Compute(2), Spawn(1, DeferMode.UNDEFERRED), Compute(3))),
                TaskSpec(id=1, actions=(Compute(4),)),
            ),
            roots=(0,),
        )
        length, _ = critical_path(g)
        assert length == 9  # child runs inline between the two segments

    def test_poll_edge(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1), Compute(2))),
                TaskSpec(id=1, actions=(Compute(7),)),
            ),
            roots=(0, 1),
        )
        assert critical_path(g) == (9, [1, 0])

    def test_an_up_chain_ranks_as_the_group_end_it_reaches(self):
        # Task 3's completion leads on, at equal length 2, to task 0's poll
        # and, up through task 2 (no group end), to task 1's group end.  The
        # up chain ranks as that group end, (1, 1), so the poll, (0, 0), wins.
        tasks = {
            0: (PollOutcome(3), Compute(2)),
            1: (Spawn(2), TaskgroupEnd(), Compute(2)),
            2: (Spawn(3),),
            3: (Compute(1),),
        }
        g = TaskGraph(tuple(TaskSpec(i, a) for i, a in tasks.items()), (1, 0))
        assert critical_path(g) == (3, [3, 0])

    def test_poll_cycle_raises(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(id=0, actions=(PollOutcome(1),)),
                TaskSpec(id=1, actions=(PollOutcome(0),)),
            ),
            roots=(0, 1),
        )
        with pytest.raises(CyclicDependencyError):
            critical_path(g)

    def test_bounded_by_total_work(self):
        g = chain_graph()
        assert critical_path(g)[0] <= total_work(g)

    def test_empty_graph(self):
        assert critical_path(TaskGraph(tasks=(), roots=())) == (0, [])


class TestJson:
    def test_round_trip(self):
        g = TaskGraph(
            tasks=(
                TaskSpec(
                    id=0,
                    actions=(
                        Compute(3),
                        Spawn(1, DeferMode.MUST_DEFER),
                        PollOutcome(1, poll_cost=2),
                        TaskwaitChildren(),
                    ),
                    priority=-4,
                    tied=False,
                    label="traversal",
                ),
                TaskSpec(id=1, actions=(Compute(1),), label="enclave"),
            ),
            roots=(0,),
        )
        assert graph_from_json(graph_to_json(g)) == g

    def test_contract_field_names(self):
        data = json.loads(graph_to_json(chain_graph()))
        assert set(data) == {"tasks", "roots"}
        task = data["tasks"][0]
        assert set(task) == {"id", "priority", "tied", "label", "actions"}
        spawn = task["actions"][1]
        assert spawn == {"type": "spawn", "child": 1, "defer": "runtime"}
        wait = task["actions"][2]
        assert wait == {"type": "taskwait_children", "mode": "throughput"}

    def test_serialization_deterministic(self):
        g = chain_graph()
        assert graph_to_json(g) == graph_to_json(g)

    def test_meta_header_survives_loading(self):
        text = graph_to_json(chain_graph(), meta={"invocation": {"seed": 3}})
        assert json.loads(text)["meta"]["invocation"]["seed"] == 3
        assert graph_from_json(text) == chain_graph()


class TestSharedActions:
    """The decoders build one instance per distinct Compute and wait value;
    the Compute cache is keyed on exact ints."""

    def test_cache_never_aliases_equal_values_of_other_types(self):
        values = (1, True, 1.0)
        for order in (values, values[::-1], (True, 1, 1.0)):
            shared = {type(v): _compute(v) for v in order}
            for value in order:
                got = _compute(value)
                assert type(got.duration) is type(value) and got == Compute(value)
            assert _compute(1) is shared[int]
            assert shared[bool] is not shared[int] and shared[float] is not shared[int]

    def test_decoded_graph_shares_equal_actions(self):
        waits = [TaskwaitChildren(WaitMode.LATENCY), TaskgroupEnd(), TaskwaitChildren()]
        tasks = [TaskSpec(0, [a for i in range(1, 5) for a in (Compute(3), Spawn(i))] + waits)]
        tasks += [TaskSpec(i, (Compute(3), Compute(i % 2 + 1)) + tuple(waits)) for i in range(1, 5)]
        back = graph_from_json(graph_to_json(TaskGraph(tasks, (0,))))
        shared = [a for spec in back.tasks for a in spec.actions if not isinstance(a, Spawn)]
        assert len({id(a) for a in shared}) == len(set(shared)) == 6
