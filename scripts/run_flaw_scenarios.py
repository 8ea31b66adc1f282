#!/usr/bin/env python3
"""Replay the four scheduling pathologies and print reference-vs-extended
numbers side by side.

Usage:
    python3 scripts/run_flaw_scenarios.py [--out DIR]

With --out, writes graph/trace JSON and a Gantt SVG per scenario.
"""

import argparse
from pathlib import Path

from schedsim import policies as pol
from schedsim.analysis import analyze, makespan_reduction, render_gantt_svg
from schedsim.engine import SimConfig, simulate
from schedsim.generators import (
    EnclaveWorkloadParams,
    NestedLoopParams,
    StarvationParams,
    gen_enclave_pattern,
    gen_nested_loop_pattern,
    gen_starvation_pattern,
    gen_two_timestep_pattern,
)
from schedsim.task_graph import DeferMode, WaitMode, graph_to_json


def throttling_scenario():
    def params(defer):
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

    graph = gen_enclave_pattern(params(DeferMode.RUNTIME_CHOICE))
    deferred = gen_enclave_pattern(params(DeferMode.MUST_DEFER))
    runs = {
        "reference b=256": (graph, SimConfig(thread_count=4, policy=pol.reference(queue_bound=256))),
        "reference unbounded": (graph, SimConfig(thread_count=4, policy=pol.reference(queue_bound=None))),
        "extended must-defer": (deferred, SimConfig(thread_count=4, policy=pol.extended(queue_bound=256))),
    }
    return "throttling", graph, runs


def nested_loop_scenario():
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
    runs = {
        "reference": (graph, SimConfig(thread_count=4, policy=pol.reference())),
        "extended scatter": (graph, SimConfig(thread_count=4, policy=pol.extended())),
    }
    return "nested-loop", graph, runs


def starvation_scenario():
    graph = gen_starvation_pattern(
        StarvationParams(T=2, C=4, E=2, poll_cost=1, enclave_cost=5, seed=1)
    )
    runs = {
        "reference": (graph, SimConfig(thread_count=2, policy=pol.reference())),
        "extended fair-yield": (graph, SimConfig(thread_count=2, policy=pol.extended())),
    }
    return "starvation", graph, runs


def two_timestep_scenario():
    throughput = gen_two_timestep_pattern(
        K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.THROUGHPUT
    )
    latency = gen_two_timestep_pattern(
        K=4, traversal_cost=10, straggler_enclave_cost=25, wait_mode=WaitMode.LATENCY
    )
    runs = {
        "reference throughput-wait": (throughput, SimConfig(thread_count=4, policy=pol.reference())),
        "extended latency-wait": (latency, SimConfig(thread_count=4, policy=pol.extended())),
    }
    return "two-timestep", throughput, runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, help="directory for JSON/SVG artifacts")
    args = parser.parse_args()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    scenarios = [
        throttling_scenario(),
        nested_loop_scenario(),
        starvation_scenario(),
        two_timestep_scenario(),
    ]
    for name, graph, runs in scenarios:
        print(f"== {name}")
        baseline = None
        for label, (run_graph, cfg) in runs.items():
            trace = simulate(run_graph, cfg)
            report = analyze(run_graph, trace)
            line = (
                f"  {label:<26} makespan {trace.makespan:>5}  outcome {trace.outcome.value:<20}"
                f" throttled {report.throttled_spawns:>3}"
                f" group-latency {report.group_start_latency:>3}"
                f" occupancy {float(report.occupancy):.3f}"
            )
            completed = trace.outcome.value == "completed"
            if baseline is None:
                baseline = (trace.makespan, completed)
            elif baseline[1] and completed and baseline[0]:
                cut = makespan_reduction(baseline[0], trace.makespan)
                line += f" reduction {float(cut):6.2f}%"
            print(line)
            if args.out:
                slug = f"{name}-{label.replace(' ', '_')}"
                (args.out / f"{slug}.trace.json").write_text(trace.to_json())
                (args.out / f"{slug}.svg").write_text(render_gantt_svg(run_graph, trace))
        if args.out:
            (args.out / f"{name}.graph.json").write_text(graph_to_json(graph))
    print("done")


if __name__ == "__main__":
    main()
