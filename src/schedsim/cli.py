"""Command-line pipeline: generate -> simulate -> compare/report.

Exit codes: 0 success (simulation completed), 2 usage or input error,
3 starvation detected, 4 virtual time limit exceeded.  Every output
file carries a meta header echoing the invocation so runs reproduce
from their artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .task_graph import (
    DEFAULT_MAX_VIRTUAL_TIME,
    CyclicDependencyError,
    DeferMode,
    WaitMode,
    YieldMode,
    critical_path,
    graph_from_json,
    graph_to_json,
    total_work,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STARVED = 3
EXIT_TIME_LIMIT = 4


def _meta(args: argparse.Namespace) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {"tool": "schedsim", "invocation": flags}


# --- generate ---------------------------------------------------------------


def _gen_from_args(args) -> "generators.TaskGraph":
    from . import generators
    # argparse supplies every default but the sizes and the --k-long lists.
    def pick(name, default=None):
        value = getattr(args, name)
        if value is None and default is None:
            raise generators.InvalidParamsError(f"generate {args.pattern} needs --{name}")
        return default if value is None else value

    if args.pattern == "enclave":
        k = pick("k")
        params = generators.EnclaveWorkloadParams(
            K=k,
            timesteps=args.timesteps,
            enclaves_per_traversal=tuple(pick("enclaves_per_traversal", [2] * k)),
            traversal_cell_cost=args.cell_cost,
            enclave_cost_range=(args.enclave_cost_min, args.enclave_cost_max),
            cells_per_traversal=tuple(pick("cells_per_traversal", [4] * k)),
            seed=args.seed,
            defer_mode=DeferMode(args.defer),
            yield_mode=YieldMode(args.yield_mode),
            wait_mode=WaitMode(args.wait_mode),
        )
        return generators.gen_enclave_pattern(params)
    if args.pattern == "starvation":
        params = generators.StarvationParams(
            T=pick("t"),
            C=pick("c"),
            E=pick("e"),
            poll_cost=args.poll_cost,
            enclave_cost=args.enclave_cost,
            seed=args.seed,
        )
        return generators.gen_starvation_pattern(params)
    if args.pattern == "nested-loop":
        params = generators.NestedLoopParams(
            K=pick("k"),
            loop_chunks=args.loop_chunks,
            chunk_cost=args.chunk_cost,
            loop_on_critical_task_only=not args.loops_everywhere,
            serial_prefix_cost=args.prefix_cost,
            serial_suffix_cost=args.suffix_cost,
            chunk_priority=args.chunk_priority,
        )
        return generators.gen_nested_loop_pattern(params)
    if args.pattern == "two-timestep":
        return generators.gen_two_timestep_pattern(
            K=pick("k"),
            traversal_cost=args.traversal_cost,
            straggler_enclave_cost=args.straggler_cost,
            wait_mode=WaitMode(args.wait_mode),
        )
    raise generators.InvalidParamsError(f"unknown pattern {args.pattern!r}")


def run_generate(args) -> int:
    from . import generators
    try:
        graph = _gen_from_args(args)
    except (generators.InvalidParamsError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    Path(args.output).write_text(graph_to_json(graph, meta=_meta(args)))
    print(f"tasks {len(graph.tasks)} total_work {total_work(graph)}")
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def _policy_from_args(args) -> "policies.PolicyConfig":
    from . import policies
    bound = None if args.no_throttle else args.queue_bound
    if args.policy == "reference":
        return policies.reference(queue_bound=bound)
    if args.policy == "fcfs":
        return policies.fcfs()
    # Bare `--policy extended` enables every extension; naming any feature
    # flag narrows the policy to exactly the named ones.
    flags = (args.fair_yield, args.latency_wait, args.priority_steal, args.scatter_defer)
    if not any(flags):
        return policies.extended(queue_bound=bound)
    return policies.extended(
        queue_bound=bound,
        fair_yield=args.fair_yield,
        honor_latency_wait=args.latency_wait,
        priority_aware=args.priority_steal,
        scatter_on_overflow=args.scatter_defer,
    )


def _parse(path: str, parse, what: str):
    """Parse a JSON file; text that is not JSON, a document that departs
    from its format (the decoders name the record and the field) or
    nesting too deep to decode is a ValueError naming the file."""
    text = Path(path).read_text()
    try:
        return parse(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed {what} file: {exc}") from None


def _load_graph(path: str):
    graph = _parse(path, graph_from_json, "graph")
    violations = validate(graph)
    if violations:
        raise ValueError(f"graph invalid: {violations[:3]}")
    return graph


def _load_analysable_graph(path: str):
    """A graph `analyze` and `compare` can read: poll and wait edges that
    close a cycle, which `validate` does not check, leave no critical path."""
    graph = _load_graph(path)
    try:
        critical_path(graph)  # cached on the graph for the analysis
    except CyclicDependencyError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return graph


def run_simulate(args) -> int:
    from . import engine, policies
    try:
        graph = _load_graph(args.graph)
        cfg = engine.SimConfig(
            thread_count=args.threads,
            policy=_policy_from_args(args),
            max_virtual_time=args.max_time,
        )
        trace = engine.simulate(graph, cfg)
    except (OSError, ValueError, policies.ConfigError, engine.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        Path(args.output).write_text(trace.to_json(meta=_meta(args)))
    if args.csv:
        Path(args.csv).write_text(trace.to_csv())
    print(f"makespan {trace.makespan} outcome {trace.outcome.value}")
    if trace.outcome is engine.Outcome.STARVATION_DETECTED:
        return EXIT_STARVED
    if trace.outcome is engine.Outcome.TIME_LIMIT_EXCEEDED:
        return EXIT_TIME_LIMIT
    return EXIT_OK


# --- compare / report ---------------------------------------------------------


def run_compare(args) -> int:
    from . import analysis
    from .trace import ScheduleTrace
    try:
        graph = _load_analysable_graph(args.graph)
        baseline = _parse(args.baseline, ScheduleTrace.from_json, "trace")
        variant = _parse(args.variant, ScheduleTrace.from_json, "trace")
        report = analysis.compare(graph, baseline, variant)
    except (OSError, ValueError, analysis.TraceMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"baseline {report.baseline_makespan} variant {report.variant_makespan} "
        f"reduction {float(report.reduction_percent):.4g}%"
    )
    if args.output:
        Path(args.output).write_text(analysis.report_to_json(report, meta=_meta(args)))
    return EXIT_OK


def run_report(args) -> int:
    from . import analysis
    from .trace import ScheduleTrace
    try:
        graph = _load_analysable_graph(args.graph)
        trace = _parse(args.trace, ScheduleTrace.from_json, "trace")
        report = analysis.analyze(graph, trace)
    except (OSError, ValueError, analysis.TraceMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.to_text())
    if args.output:
        Path(args.output).write_text(analysis.report_to_json(report, meta=_meta(args)))
    if args.svg:
        Path(args.svg).write_text(analysis.render_gantt_svg(graph, trace))
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    if (value := int(text)) <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive int, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedsim",
        description="Deterministic what-if simulator for task scheduling policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a workload graph as JSON")
    gen.add_argument("pattern", choices=["enclave", "starvation", "nested-loop", "two-timestep"])
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k", type=int)
    gen.add_argument("--timesteps", type=int, default=1)
    gen.add_argument("--cell-cost", dest="cell_cost", type=int, default=1)
    gen.add_argument("--cells-per-traversal", dest="cells_per_traversal", type=int, nargs="+")
    gen.add_argument("--enclaves-per-traversal", dest="enclaves_per_traversal", type=int, nargs="+")
    gen.add_argument("--enclave-cost-min", dest="enclave_cost_min", type=int, default=1)
    gen.add_argument("--enclave-cost-max", dest="enclave_cost_max", type=int, default=1)
    gen.add_argument("--defer", choices=[m.value for m in DeferMode], default="runtime")
    gen.add_argument("--yield-mode", dest="yield_mode", choices=[m.value for m in YieldMode], default="default")
    gen.add_argument("--wait-mode", dest="wait_mode", choices=[m.value for m in WaitMode], default="throughput")
    gen.add_argument("--t", type=int)
    gen.add_argument("--c", type=int)
    gen.add_argument("--e", type=int)
    gen.add_argument("--poll-cost", dest="poll_cost", type=int, default=1)
    gen.add_argument("--enclave-cost", dest="enclave_cost", type=int, default=1)
    gen.add_argument("--loop-chunks", dest="loop_chunks", type=int, default=4)
    gen.add_argument("--chunk-cost", dest="chunk_cost", type=int, default=1)
    gen.add_argument("--chunk-priority", dest="chunk_priority", type=int, default=0)
    gen.add_argument("--prefix-cost", dest="prefix_cost", type=int, default=1)
    gen.add_argument("--suffix-cost", dest="suffix_cost", type=int, default=1)
    gen.add_argument("--loops-everywhere", dest="loops_everywhere", action="store_true")
    gen.add_argument("--traversal-cost", dest="traversal_cost", type=int, default=10)
    gen.add_argument("--straggler-cost", dest="straggler_cost", type=int, default=25)
    gen.set_defaults(func=run_generate)

    sim = sub.add_parser("simulate", help="replay a graph under a policy")
    sim.add_argument("graph")
    sim.add_argument("--policy", choices=["reference", "fcfs", "extended"], default="reference")
    sim.add_argument("--threads", type=int, default=4)
    sim.add_argument("--queue-bound", dest="queue_bound", type=_positive_int, default=256)
    sim.add_argument("--no-throttle", dest="no_throttle", action="store_true",
                     help="unbounded queues (never throttle)")
    sim.add_argument("--fair-yield", dest="fair_yield", action="store_true")
    sim.add_argument("--latency-wait", dest="latency_wait", action="store_true")
    sim.add_argument("--priority-steal", dest="priority_steal", action="store_true")
    sim.add_argument("--scatter-defer", dest="scatter_defer", action="store_true")
    sim.add_argument("--max-time", dest="max_time", type=int, default=DEFAULT_MAX_VIRTUAL_TIME)
    sim.add_argument("-o", "--output")
    sim.add_argument("--csv")
    sim.set_defaults(func=run_simulate)

    cmp_ = sub.add_parser("compare", help="compare two traces of the same graph")
    cmp_.add_argument("graph")
    cmp_.add_argument("baseline")
    cmp_.add_argument("variant")
    cmp_.add_argument("-o", "--output")
    cmp_.set_defaults(func=run_compare)

    rep = sub.add_parser("report", help="metrics and Gantt chart for a trace")
    rep.add_argument("graph")
    rep.add_argument("trace")
    rep.add_argument("-o", "--output")
    rep.add_argument("--svg")
    rep.set_defaults(func=run_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # each command reports its unreadable inputs, so this is an output
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
