"""Trace digests on many threads.

``golden_digests.json`` and ``latency_digests.json`` stop at 4 threads,
so they never steal round-robin over many queues, never leave most
threads idle at a timestamp and never scatter loop chunks across more
than three victims.  This corpus runs the small enclave, starvation,
nested-loop and spawn-chain graphs on 5 to 64 threads under every golden
config, plus unbounded reference queues and extended queues without
priority awareness, and ``many_thread_digests.json`` pins the SHA-256 of
``trace.to_json()`` of every run.

Regenerate only when a trace change is intended::

    PYTHONPATH=src python tests/test_many_thread_digests.py
"""

import hashlib
import json
from pathlib import Path

from schedsim import policies as pol
from schedsim.engine import SimConfig, simulate
from schedsim.generators import (
    EnclaveWorkloadParams,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
)
from schedsim.prng import SplitMix64
from schedsim.task_graph import DeferMode, TaskGraph, TaskgroupEnd, TaskwaitChildren, WaitMode

from graph_draws import spawn_chain

DIGESTS_PATH = Path(__file__).with_name("many_thread_digests.json")
SEED = 1
THREADS = (5, 8, 13, 32, 64)
CONFIGS = {
    "reference": pol.reference(),
    "reference_bound2": pol.reference(queue_bound=2),
    "fcfs": pol.fcfs(),
    "extended": pol.extended(),
    "extended_bound2": pol.extended(queue_bound=2),
    "reference_unbounded": pol.reference(queue_bound=None),
    "extended_unaware": pol.extended(priority_aware=False),
}


def enclave(defer: DeferMode, wait: WaitMode) -> TaskGraph:
    """The benchmark's small enclave-throttle graph."""
    return gen_enclave_pattern(
        EnclaveWorkloadParams(
            K=8,
            timesteps=2,
            enclaves_per_traversal=(40,) + (4,) * 7,
            traversal_cell_cost=1,
            enclave_cost_range=(1, 8),
            cells_per_traversal=(60,) + (20,) * 7,
            seed=SEED,
            defer_mode=defer,
            wait_mode=wait,
        )
    )


def starvation() -> TaskGraph:
    """The benchmark's small poll-storm graph."""
    rng = SplitMix64(SEED)
    consumers = 24 + rng.randint(0, 16)
    enclaves = 6 + rng.randint(0, 4)
    return gen_starvation_pattern(
        StarvationParams(T=8, C=consumers, E=enclaves, poll_cost=1, enclave_cost=5, seed=SEED)
    )


def nested_loop(k: int, chunks: int, critical_only: bool, chunk_priority: int) -> TaskGraph:
    return gen_nested_loop_pattern(
        NestedLoopParams(
            K=k,
            loop_chunks=chunks,
            chunk_cost=2,
            loop_on_critical_task_only=critical_only,
            serial_prefix_cost=3,
            serial_suffix_cost=2,
            chunk_priority=chunk_priority,
        )
    )


def graphs() -> dict:
    rng = SplitMix64(SEED)
    return {
        "enclave_runtime": enclave(DeferMode.RUNTIME_CHOICE, WaitMode.THROUGHPUT),
        "enclave_must_defer": enclave(DeferMode.MUST_DEFER, WaitMode.LATENCY),
        "starvation": starvation(),
        "nested_loop_critical": nested_loop(4, 40, True, 0),
        "nested_loop_all": nested_loop(8, 24, False, 0),
        "nested_loop_all_high": nested_loop(16, 12, False, 3),
        "chain_taskwait": spawn_chain(48, TaskwaitChildren, rng),
        "chain_taskgroup": spawn_chain(48, TaskgroupEnd, rng),
    }


def compute_digests() -> dict:
    """Per config name, per graph name, one digest per thread count."""
    corpus = graphs()
    digests = {
        name: {
            key: [
                hashlib.sha256(
                    simulate(graph, SimConfig(thread_count=threads, policy=policy)).to_json().encode()
                ).hexdigest()
                for threads in THREADS
            ]
            for key, graph in corpus.items()
        }
        for name, policy in CONFIGS.items()
    }
    return {"seed": SEED, "threads": list(THREADS), "digests": digests}


def test_many_thread_traces_match_digests():
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert (pinned["seed"], pinned["threads"]) == (SEED, list(THREADS))
    actual = compute_digests()["digests"]
    assert sorted(actual) == sorted(pinned["digests"])
    mismatches = [
        (name, key, THREADS[col])
        for name, rows in pinned["digests"].items()
        for key, row in rows.items()
        for col, digest in enumerate(row)
        if actual[name][key][col] != digest
    ]
    assert not mismatches, f"{len(mismatches)} traces changed, first: {mismatches[:5]}"


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
