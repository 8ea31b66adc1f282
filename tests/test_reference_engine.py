"""The engine against ``reference_engine``, a direct interpreter of its model.

Every trace ``simulate`` writes must equal, byte for byte, the trace the
interpreter writes for the same graph and config.  The interpreter keeps
none of the engine's shortcuts (parked runs, skipped passes, narrowed
filters, futile-pick tokens, heaps), so this one comparison checks each
of them on any graph the strategies draw.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
import test_golden_digests
import test_latency_digests
import test_many_thread_digests
from schedsim.engine import SimConfig, simulate
from schedsim.prng import SplitMix64
from schedsim.task_graph import TaskgroupEnd, TaskwaitChildren

from graph_draws import DEFER_MODES, METAMORPHIC_POLICIES, WAIT_MODES, poll_graph, sample_graph, spawn_chain, tied_forest


def chain(rng):
    """A spawn chain of 1 to 40 links in one defer mode, each link waiting
    at a child wait or group end in either mode, or not at all."""
    wait = [None, TaskwaitChildren, TaskgroupEnd][rng.randint(0, 2)]
    mode = WAIT_MODES[rng.randint(0, 1)]
    defer = DEFER_MODES[rng.randint(0, 2)]
    return spawn_chain(rng.randint(1, 40), wait and (lambda: wait(mode)), rng, defer)


DRAWERS = {
    "sample": sample_graph,
    "forest": lambda rng: tied_forest(rng, rng.randint(1, 6), latency=True),
    "poll": poll_graph,
    "chain": chain,
}


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(sorted(DRAWERS)),
    st.integers(0, 2**64 - 1),
    st.sampled_from(METAMORPHIC_POLICIES),
    st.integers(1, 9),
)
def test_engine_matches_the_reference_interpreter(family, seed, policy, threads):
    graph = DRAWERS[family](SplitMix64(seed))
    cfg = SimConfig(thread_count=threads, policy=policy, max_virtual_time=10_000)
    assert simulate(graph, cfg).to_json() == reference_engine.simulate(graph, cfg).to_json()


@pytest.mark.parametrize(
    "module, path",
    [
        (test_golden_digests, test_golden_digests.GOLDEN_PATH),
        (test_latency_digests, test_latency_digests.DIGESTS_PATH),
        (test_many_thread_digests, test_many_thread_digests.DIGESTS_PATH),
    ],
    ids=["golden", "latency", "many-thread"],
)
def test_the_interpreter_reproduces_the_pinned_digests(monkeypatch, module, path):
    monkeypatch.setattr(module, "simulate", reference_engine.simulate)
    assert module.compute_digests() == json.loads(path.read_text())
