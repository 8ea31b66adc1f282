import pytest

from schedsim.generators import (
    EnclaveWorkloadParams,
    InvalidParamsError,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
    gen_two_timestep_pattern,
)
from schedsim.task_graph import (
    Compute,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskgroupEnd,
    TaskwaitChildren,
    WaitMode,
    YieldMode,
    critical_path,
    graph_from_json,
    graph_to_json,
    validate,
)


def enclave_params(**overrides):
    base = dict(
        K=2,
        timesteps=1,
        enclaves_per_traversal=(3, 0),
        traversal_cell_cost=2,
        enclave_cost_range=(1, 4),
        cells_per_traversal=(3, 1),
        seed=9,
    )
    base.update(overrides)
    return EnclaveWorkloadParams(**base)


class TestEnclavePattern:
    def test_single_traversal_no_enclaves(self):
        g = gen_enclave_pattern(
            enclave_params(K=1, enclaves_per_traversal=(0,), cells_per_traversal=(3,))
        )
        assert len(g.tasks) == 1
        assert g.tasks[0].actions == (
            Compute(2),
            Compute(2),
            Compute(2),
            TaskwaitChildren(WaitMode.THROUGHPUT),
        )

    def test_deterministic_serialization(self):
        a = graph_to_json(gen_enclave_pattern(enclave_params()))
        b = graph_to_json(gen_enclave_pattern(enclave_params()))
        assert a == b

    def test_different_seed_changes_costs(self):
        a = graph_to_json(gen_enclave_pattern(enclave_params(seed=1)))
        b = graph_to_json(gen_enclave_pattern(enclave_params(seed=2)))
        assert a != b

    def test_enclave_count(self):
        g = gen_enclave_pattern(enclave_params(timesteps=3))
        enclaves = [t for t in g.tasks if t.label == "enclave"]
        assert len(enclaves) == 3 * 3  # sum(enclaves_per_traversal) x timesteps

    def test_generated_graph_validates(self):
        assert validate(gen_enclave_pattern(enclave_params(timesteps=2))) == []

    def test_spawns_carry_defer_mode(self):
        g = gen_enclave_pattern(enclave_params(defer_mode=DeferMode.MUST_DEFER))
        spawns = [
            a
            for t in g.tasks
            if t.label == "traversal"
            for a in t.actions
            if isinstance(a, Spawn)
        ]
        assert spawns and all(s.defer is DeferMode.MUST_DEFER for s in spawns)

    def test_second_step_polls_previous_enclaves(self):
        g = gen_enclave_pattern(enclave_params(timesteps=2, yield_mode=YieldMode.THROUGHPUT))
        traversals = [t for t in g.tasks if t.label == "traversal"]
        step2 = traversals[2:]
        polls = [a for t in step2 for a in t.actions if isinstance(a, PollOutcome)]
        assert len(polls) == 3  # all first-step enclaves are consumed once
        assert all(p.yield_mode is YieldMode.THROUGHPUT for p in polls)
        enclave_ids = {t.id for t in g.tasks if t.label == "enclave"}
        assert all(p.target in enclave_ids for p in polls)

    def test_multi_step_gated_by_driver(self):
        g = gen_enclave_pattern(enclave_params(timesteps=2))
        assert len(g.roots) == 1
        assert g.task(g.roots[0]).label == "driver"

    def test_cost_range_respected(self):
        g = gen_enclave_pattern(enclave_params(enclave_cost_range=(2, 5)))
        for t in g.tasks:
            if t.label == "enclave":
                assert 2 <= t.actions[0].duration <= 5

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            gen_enclave_pattern(enclave_params(enclaves_per_traversal=(1,)))
        with pytest.raises(InvalidParamsError):
            gen_enclave_pattern(enclave_params(enclave_cost_range=(5, 2)))


class TestStarvationPattern:
    def test_structure(self):
        g = gen_starvation_pattern(
            StarvationParams(T=2, C=4, E=2, poll_cost=1, enclave_cost=5, seed=0)
        )
        assert len(g.tasks) == 6
        consumers = [t for t in g.tasks if t.label == "consumer"]
        enclaves = [t for t in g.tasks if t.label == "enclave"]
        assert len(consumers) == 4 and len(enclaves) == 2
        # every consumer polls one existing enclave outcome
        targets = [t.actions[0].target for t in consumers]
        assert set(targets) == {e.id for e in enclaves}
        # consumers occupy the front of the initial pool
        assert list(g.roots) == [t.id for t in consumers] + [e.id for e in enclaves]

    def test_boundary_c_equals_t_plus_one_rejected(self):
        with pytest.raises(InvalidParamsError):
            gen_starvation_pattern(
                StarvationParams(T=2, C=3, E=1, poll_cost=1, enclave_cost=1, seed=0)
            )

    def test_counts(self):
        g = gen_starvation_pattern(
            StarvationParams(T=4, C=6, E=4, poll_cost=1, enclave_cost=1, seed=0)
        )
        assert len(g.tasks) == 10

    def test_validates(self):
        g = gen_starvation_pattern(
            StarvationParams(T=2, C=5, E=3, poll_cost=0, enclave_cost=2, seed=3)
        )
        assert validate(g) == []


class TestNestedLoopPattern:
    def params(self, **overrides):
        base = dict(
            K=4,
            loop_chunks=4,
            chunk_cost=10,
            loop_on_critical_task_only=True,
            serial_prefix_cost=5,
            serial_suffix_cost=5,
            chunk_priority=0,
        )
        base.update(overrides)
        return NestedLoopParams(**base)

    def test_critical_traversal_shape(self):
        g = gen_nested_loop_pattern(self.params())
        critical = g.task(g.roots[0])
        kinds = [type(a).__name__ for a in critical.actions]
        assert kinds == ["Compute", "Spawn", "Spawn", "Spawn", "Spawn", "TaskwaitChildren", "Compute"]
        chunks = [g.task(a.child) for a in critical.actions if isinstance(a, Spawn)]
        assert all(c.label == "loop-chunk" for c in chunks)

    def test_critical_path_through_loop(self):
        g = gen_nested_loop_pattern(self.params())
        length, path = critical_path(g)
        assert length == 20  # prefix + one chunk + suffix
        assert g.roots[0] in path

    def test_serialized_chunk_cost(self):
        # executing prefix, all chunks and suffix on one thread costs 50
        p = self.params()
        assert p.serial_prefix_cost + p.loop_chunks * p.chunk_cost + p.serial_suffix_cost == 50

    def test_single_chunk_cannot_parallelize(self):
        g = gen_nested_loop_pattern(self.params(loop_chunks=1))
        length, _ = critical_path(g)
        assert length == 5 + 10 + 5

    def test_loops_everywhere_toggle(self):
        g = gen_nested_loop_pattern(self.params(loop_on_critical_task_only=False, K=3))
        traversals = [t for t in g.tasks if t.label == "traversal"]
        for t in traversals:
            assert any(
                isinstance(a, Spawn) and g.task(a.child).label == "loop-chunk"
                for a in t.actions
            )

    def test_peers_block_long_enough(self):
        g = gen_nested_loop_pattern(self.params())
        peers = [g.task(r) for r in g.roots[1:]]
        for peer in peers:
            blockers = [g.task(a.child) for a in peer.actions if isinstance(a, Spawn)]
            total = sum(b.actions[0].duration for b in blockers)
            assert total >= 5 + 3 * 10  # covers prefix plus all but the last chunk

    def test_validates(self):
        assert validate(gen_nested_loop_pattern(self.params())) == []


class TestTwoTimestepPattern:
    def test_structure(self):
        g = gen_two_timestep_pattern(
            K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.THROUGHPUT
        )
        assert validate(g) == []
        driver = g.task(g.roots[0])
        assert driver.label == "driver"
        waits = [a for a in driver.actions if isinstance(a, TaskwaitChildren)]
        assert len(waits) == 2
        assert all(w.mode is WaitMode.THROUGHPUT for w in waits)
        g1 = [t for t in g.tasks if t.label == "traversal-g1"]
        g2 = [t for t in g.tasks if t.label == "traversal-g2"]
        enclaves = [t for t in g.tasks if t.label == "enclave"]
        assert len(g1) == len(g2) == len(enclaves) == 4

    def test_group_order_in_driver(self):
        g = gen_two_timestep_pattern(
            K=2, traversal_cost=3, straggler_enclave_cost=8, wait_mode=WaitMode.LATENCY
        )
        driver = g.task(g.roots[0])
        labels = []
        for a in driver.actions:
            labels.append(g.task(a.child).label if isinstance(a, Spawn) else "wait")
        assert labels == ["traversal-g1", "traversal-g1", "wait", "traversal-g2", "traversal-g2", "wait"]

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidParamsError):
            gen_two_timestep_pattern(
                K=1, traversal_cost=1, straggler_enclave_cost=2, wait_mode=WaitMode.THROUGHPUT
            )

    def test_straggler_must_outlast_traversal(self):
        with pytest.raises(InvalidParamsError):
            gen_two_timestep_pattern(
                K=2, traversal_cost=5, straggler_enclave_cost=5, wait_mode=WaitMode.THROUGHPUT
            )


def shared_action_graphs():
    return {
        "enclave": gen_enclave_pattern(enclave_params(timesteps=3, enclaves_per_traversal=(9, 4))),
        "enclave-latency": gen_enclave_pattern(
            enclave_params(timesteps=2, traversal_cell_cost=1, wait_mode=WaitMode.LATENCY)
        ),
        "starvation": gen_starvation_pattern(
            StarvationParams(T=2, C=9, E=3, poll_cost=1, enclave_cost=2, seed=0)
        ),
        "nested-loop": gen_nested_loop_pattern(
            NestedLoopParams(
                K=3,
                loop_chunks=4,
                chunk_cost=5,
                loop_on_critical_task_only=False,
                serial_prefix_cost=5,
                serial_suffix_cost=2,
                chunk_priority=1,
            )
        ),
        "nested-loop-peers": gen_nested_loop_pattern(
            NestedLoopParams(
                K=3,
                loop_chunks=4,
                chunk_cost=2,
                loop_on_critical_task_only=True,
                serial_prefix_cost=3,
                serial_suffix_cost=3,
                chunk_priority=0,
            )
        ),
        "two-timestep": gen_two_timestep_pattern(3, 2, 5, WaitMode.LATENCY),
    }


SHARED_KINDS = (Compute, TaskwaitChildren, TaskgroupEnd, PollOutcome)


@pytest.mark.parametrize("name", list(shared_action_graphs()))
def test_one_object_per_distinct_action_value(name):
    """Each generator builds a Compute, wait or poll once per distinct
    value; so does the decoder, for Computes and waits."""
    graph = shared_action_graphs()[name]
    back = graph_from_json(graph_to_json(graph))
    for g, kinds in ((graph, SHARED_KINDS), (back, SHARED_KINDS[:3])):
        actions = [a for spec in g.tasks for a in spec.actions if isinstance(a, kinds)]
        assert len({id(a) for a in actions}) == len(set(actions)) < len(actions)


@pytest.mark.parametrize("cost", [1.5, True])
def test_non_integer_cell_cost_fails_validation(cost):
    g = gen_enclave_pattern(enclave_params(traversal_cell_cost=cost))
    assert {v.kind for v in validate(g)} == {"WrongType"}
