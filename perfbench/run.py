#!/usr/bin/env python3
"""schedsim benchmark: what-if experiment time, simulated tasks per second
and per-layer timings on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload enclave-throttle --seed 1 \
        --seconds 20 --trace 0

One experiment is one pass over a workload's graphs: validate, graph JSON
round trip, critical_path, simulate under each policy config,
validate_trace, trace JSON round trip, analyze, compare against the first
config and a Gantt SVG of the baseline.  ``--trace 0`` times experiments
and the ``schedsim`` CLI pipeline with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced
experiments, writes the spans to ``perfbench/out/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in this one Python process, apart from the CLI steps,
which run one at a time as ``python -m schedsim.cli`` subprocesses.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

OP_CAP_S = 60.0  # wall-clock cap of one operation; past it the operation fails
RUN_CAP_S = 140.0  # no experiment or pipeline starts after this many seconds
SETUPS_PER_BATCH = 3  # a batch before the first round and after every round
MIN_ROUNDS = 2  # a round: one experiment (and a traced one) and one CLI pipeline

CAL_REPS = 5

CONFIGS = ("reference", "reference_unbounded", "fcfs", "extended")
DEFAULT_SEED = 1  # digests.json pins seeds 0-31, this one included


class OpTimeout(Exception):
    """An operation ran past its wall-clock cap."""


class Span(NamedTuple):
    """One timed call, in seconds since the recorder started."""

    id: int
    name: str
    layer: str
    where: str  # graph, or group/config, or the CLI graph
    start: float
    end: float
    parent: int | None
    experiment: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Runs operations under a cap, counts failures and records spans.

    Spans stay in memory until ``write_spans``; with tracing off none
    are recorded.
    """

    def __init__(self, tracing: bool):
        self.t0 = time.perf_counter()
        self.tracing = tracing
        self.spans = []
        self._open = []  # (span id, experiment id) of the enclosing spans
        self._armed = False
        self.attempted = 0
        self.failures = Counter()  # (operation, where, reason) -> count
        self.correct = True
        signal.signal(signal.SIGALRM, self._on_alarm)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def cap(self) -> float:
        return max(1.0, min(OP_CAP_S, RUN_CAP_S + 25.0 - self.elapsed()))

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise OpTimeout()

    def _reserve(self):
        """Id for a span about to start, or None with tracing off."""
        if not self.tracing:
            return None
        self.spans.append(None)
        return len(self.spans) - 1

    def _close(self, span_id, name, layer, where, start, end, experiment):
        if span_id is not None:
            parent = self._open[-1][0] if self._open else None
            self.spans[span_id] = Span(
                span_id, name, layer, where, start - self.t0, end - self.t0, parent, experiment
            )

    @contextmanager
    def span(self, name, layer, experiment, where=""):
        """Enclosing span; yields a dict whose "s" is set to the duration."""
        out = {}
        span_id = self._reserve()
        self._open.append((span_id, experiment))
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            self._open.pop()
            out["s"] = end - start
            self._close(span_id, name, layer, where, start, end, experiment)

    def op(self, name, layer, where, fn, *args):
        """One capped call into the program: returns (ok, result, seconds)."""
        self.attempted += 1
        error = None
        result = None
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.cap())
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # boundary: a failing call is counted, not fatal
            error = exc
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if self.tracing:
            experiment = self._open[-1][1] if self._open else ""
            self._close(self._reserve(), name, layer, where, start, end, experiment)
        if error is not None:
            reason = "timeout" if isinstance(error, OpTimeout) else type(error).__name__
            self.failures[(name, where, reason)] += 1
        return error is None, result, end - start

    def reject(self, name, where, reason):
        """An operation returned, but its output failed the correctness gate."""
        self.failures[(name, where, reason)] += 1
        self.correct = False

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# --- host calibration -----------------------------------------------------------


class _Node:
    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.children = []


def _calibration_work(n=20000):
    """Fixed pure-Python work shaped like the simulator's (objects, dicts,
    lists, a tree walk, a sort) that calls no schedsim code."""
    state = 1
    nodes = {}
    for key in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        node = _Node(key, state >> 56)
        nodes[key] = node
        if key:
            nodes[state % key].children.append(node)
    total_weight = 0
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        total_weight += node.weight
        stack.extend(node.children)
    order = sorted(nodes.values(), key=lambda node: (node.weight, node.key))
    return total_weight + order[0].key


def host_calibration_s() -> float:
    """Median time of CAL_REPS runs of the calibration loop.

    It reads how fast the shared host ran at that moment, so that runs
    can be compared only where the host ran alike.  The collector is
    paused, so that the program's heap does not change the loop's time.
    """
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_REPS):
            start = time.perf_counter()
            _calibration_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


# --- set-up -------------------------------------------------------------------


def import_schedsim() -> SimpleNamespace:
    """Fresh import of schedsim and the workload builders."""
    for name in list(sys.modules):
        if name == "schedsim" or name.startswith("schedsim.") or name == "workloads":
            del sys.modules[name]
    schedsim = importlib.import_module("schedsim")
    origin = Path(schedsim.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"schedsim imported from {origin}, not from {SRC}")
    task_graph = importlib.import_module("schedsim.task_graph")
    engine = importlib.import_module("schedsim.engine")
    workloads = importlib.import_module("workloads")
    return SimpleNamespace(
        validate=task_graph.validate,
        critical_path=task_graph.critical_path,
        graph_to_json=task_graph.graph_to_json,
        graph_from_json=task_graph.graph_from_json,
        graph_from_dict=task_graph.graph_from_dict,
        simulate=engine.simulate,
        ScheduleTrace=engine.ScheduleTrace,
        EventKind=engine.EventKind,
        analyze=schedsim.analyze,
        compare=schedsim.compare,
        validate_trace=schedsim.validate_trace,
        render_gantt_svg=schedsim.render_gantt_svg,
        workloads=workloads,
    )


def set_up_batch(rec, args, setups):
    """SETUPS_PER_BATCH set-ups, each an import plus graph generation.

    Appends (id, seconds, generate seconds) to ``setups`` and returns the
    modules and workload of the last one.
    """
    for _ in range(SETUPS_PER_BATCH):
        gc.collect()
        setup_id = f"setup-{len(setups)}"
        with rec.span("setup", "bench", setup_id) as setup:
            with rec.span("import", "bench", setup_id):
                ss = import_schedsim()
            with rec.span("generate", "generators", setup_id, args.workload) as gen:
                wl = ss.workloads.BUILDERS[args.workload](args.seed, args.scale)
        setups.append((setup_id, setup["s"], gen["s"]))
    return ss, wl


# --- correctness gate -----------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Stored and repeat digests plus the per-run counts read from traces."""

    def __init__(self, stored):
        self.stored = stored  # where -> digest, or None when the seed is not pinned
        self.seen = {}  # where -> digest of the first trace in this process
        self.counts = {}  # where -> Counter of trace counts

    def digest_problems(self, where, digest):
        problems = []
        if self.stored is not None and self.stored.get(where) != digest:
            problems.append("digest differs from digests.json")
        first = self.seen.setdefault(where, digest)
        if first != digest:
            problems.append("digest differs between repeats")
        return problems

    def count(self, ss, where, trace):
        if where in self.counts:
            return
        kinds = Counter(event.kind for event in trace.events)
        self.counts[where] = Counter(
            events=len(trace.events),
            segments=len(trace.segments),
            makespan=trace.makespan,
            steals=kinds[ss.EventKind.STOLEN],
            yields=kinds[ss.EventKind.YIELDED],
            throttled=kinds[ss.EventKind.THROTTLED],
            scattered=kinds[ss.EventKind.SCATTERED],
            spawned=kinds[ss.EventKind.SPAWNED],
        )


def load_stored_digests(path, scale, seed, workload):
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data.get(scale, {}).get(str(seed), {}).get(workload)


# --- one experiment -----------------------------------------------------------------


def experiment(rec, ss, wl, gate, exp_id):
    """One pass over the workload; returns (wall s, simulate s, tasks completed)."""
    sim_s = 0.0
    done = 0
    with rec.span("experiment", "bench", exp_id) as wall:
        cp = {}
        for key, graph in wl.graphs.items():
            ok, violations, _ = rec.op("validate", "task_graph", key, ss.validate, graph)
            if ok and violations:
                rec.reject("validate", key, f"{len(violations)} graph violations")
            ok, text, _ = rec.op("graph_to_json", "task_graph", key, ss.graph_to_json, graph)
            if ok:
                ok, back, _ = rec.op("graph_from_json", "task_graph", key, ss.graph_from_json, text)
                if ok and back != graph:
                    rec.reject("graph_from_json", key, "round trip differs")
            ok, result, _ = rec.op("critical_path", "task_graph", key, ss.critical_path, graph)
            if ok:
                cp[key] = result[0]

        for group in wl.groups:
            traces = {}
            for run in group.runs:
                where = f"{group.name}/{run.config}"
                graph = wl.graphs[run.graph]
                ok, trace, seconds = rec.op("simulate", "engine", where, ss.simulate, graph, run.sim)
                sim_s += seconds
                if not ok:
                    continue
                traces[run.config] = trace
                done += sum(1 for e in trace.events if e.kind is ss.EventKind.COMPLETED)
                gate.count(ss, where, trace)
                problems = []
                outcome = trace.outcome.value
                if outcome != run.expected_outcome:
                    problems.append(f"outcome {outcome}, expected {run.expected_outcome}")
                if outcome == "completed" and run.graph in cp and trace.makespan < cp[run.graph]:
                    problems.append("makespan below critical path")
                ok, violations, _ = rec.op(
                    "validate_trace", "analysis", where, ss.validate_trace, graph, trace
                )
                if ok and violations:
                    problems.append(f"{len(violations)} validate_trace violations")
                ok, text, _ = rec.op("trace_to_json", "engine", where, trace.to_json)
                if ok:
                    problems += gate.digest_problems(where, sha256(text))
                    ok, back, _ = rec.op(
                        "trace_from_json", "engine", where, ss.ScheduleTrace.from_json, text
                    )
                    if ok and back != trace:
                        rec.reject("trace_from_json", where, "round trip differs")
                if problems:
                    rec.reject("simulate", where, "; ".join(problems))
                rec.op("analyze", "analysis", where, ss.analyze, graph, trace)

            base = group.runs[0]
            if base.config in traces:
                group_graph = wl.graphs[group.graph]
                for run in group.runs[1:]:
                    if run.config in traces:
                        rec.op(
                            "compare", "analysis", f"{group.name}/{run.config}", ss.compare,
                            group_graph, traces[base.config], traces[run.config],
                        )
                rec.op(
                    "gantt_svg", "analysis", f"{group.name}/{base.config}",
                    ss.render_gantt_svg, wl.graphs[base.graph], traces[base.config],
                )
    return wall["s"], sim_s, done


# --- the CLI pipeline -------------------------------------------------------------


class CliError(Exception):
    """A schedsim subprocess exited with an unexpected code."""


def _cli_step(name, argv, expected, workdir):
    """Run one `schedsim` subprocess; raise on an unexpected exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "schedsim.cli", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=OP_CAP_S,
    )
    if proc.returncode not in expected:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise CliError(f"{name} exited {proc.returncode}: {last[:160]}")
    return proc.returncode


def cli_pipeline(rec, ss, wl, gate, workdir, pipe_id, check):
    """generate, simulate baseline and variant, compare, report --svg.

    Returns the wall seconds of the steps.  With ``check`` the output
    files are compared with the in-process graph and trace digests
    afterwards, outside the timed part.
    """
    plan = wl.cli
    graph_file, base_file, var_file, svg_file = "graph.json", "base.json", "variant.json", "gantt.svg"
    for name in (graph_file, base_file, var_file, svg_file):
        (workdir / name).unlink(missing_ok=True)
    steps = []
    if plan.generate is None:
        graph = wl.graphs[plan.graph]
        steps.append(("cli.generate", lambda: (workdir / graph_file).write_text(ss.graph_to_json(graph))))
    else:
        steps.append(("cli.generate", lambda: _cli_step(
            "generate", ["generate", *plan.generate, "-o", graph_file], (0,), workdir)))
    steps += [
        ("cli.simulate", lambda: _cli_step(
            "simulate", ["simulate", graph_file, *plan.baseline, "-o", base_file],
            (plan.expected_exit[0],), workdir)),
        ("cli.simulate", lambda: _cli_step(
            "simulate", ["simulate", graph_file, *plan.variant, "-o", var_file],
            (plan.expected_exit[1],), workdir)),
        ("cli.compare", lambda: _cli_step(
            "compare", ["compare", graph_file, base_file, var_file], (0,), workdir)),
        ("cli.report", lambda: _cli_step(
            "report", ["report", graph_file, base_file, "--svg", svg_file], (0,), workdir)),
    ]
    with rec.span("cli_pipeline", "bench", pipe_id) as wall:
        for name, step in steps:
            ok, _, _ = rec.op(name, "cli", plan.graph, step)
            if not ok:
                break
    if ok and check:
        check_cli_outputs(rec, ss, wl, gate, workdir, (graph_file, base_file, var_file, svg_file))
    return wall["s"]


def check_cli_outputs(rec, ss, wl, gate, workdir, files):
    plan = wl.cli
    graph_file, base_file, var_file, svg_file = files
    data = json.loads((workdir / graph_file).read_text())
    data.pop("meta", None)
    if ss.graph_from_dict(data) != wl.graphs[plan.graph]:
        rec.reject("cli.generate", plan.graph, "graph differs from the in-process graph")
    for where, name in ((plan.baseline_key, base_file), (plan.variant_key, var_file)):
        trace = json.loads((workdir / name).read_text())
        trace.pop("meta", None)
        digest = sha256(json.dumps(trace, indent=2))
        if gate.seen.get(where, digest) != digest:
            rec.reject("cli.simulate", where, "trace differs from the in-process trace")
    if not (workdir / svg_file).read_text().startswith("<svg"):
        rec.reject("cli.report", plan.graph, "no SVG written")


# --- metrics -----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def tail_note(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return ""


def group_spans(spans, ids):
    """Spans of the given experiments (or set-ups, or pipelines) by id,
    without the enclosing experiment span itself."""
    out = {i: [] for i in ids}
    for span in spans:
        if span.experiment in out and span.name != "experiment":
            out[span.experiment].append(span)
    return out


def total(spans, *names, where=lambda w: True):
    return sum(s.seconds for s in spans if s.name in names and where(s.where))


def layer_total(spans, layer):
    return sum(s.seconds for s in spans if s.layer == layer)


def per_layer_metrics(rec, wl, gate, traced_ids, untraced_walls, pipe_ids, setup_ids):
    """Per-layer numbers from the traced spans and the trace counts."""
    spans = [s for s in rec.spans if s is not None]
    by_exp = group_spans(spans, traced_ids)
    run_graph = {f"{g.name}/{r.config}": r.graph for g in wl.groups for r in g.runs}

    def med(fn):
        """Median over the traced experiments of fn(spans of one experiment)."""
        return median([fn(by_exp[e]) for e in traced_ids])

    def engine_self(exp, where=lambda w: True):
        validate = {s.where: s.seconds for s in exp if s.name == "validate"}
        return sum(
            s.seconds - validate.get(run_graph[s.where], 0.0)
            for s in exp if s.name == "simulate" and where(s.where)
        )

    def config_is(config):
        return lambda w: w.endswith("/" + config)

    m = {}
    for config in CONFIGS:
        m[f"engine.simulate_s.{config}"] = (
            med(lambda e: total(e, "simulate", where=config_is(config))), "s")
    m["engine.self_s"] = (med(engine_self), "s")
    m["engine.trace_json_s"] = (med(lambda e: total(e, "trace_to_json", "trace_from_json")), "s")

    sums = Counter()
    for counts in gate.counts.values():
        sums.update(counts)
    m["engine.events"] = (sums["events"], "count")
    m["engine.segments"] = (sums["segments"], "count")
    for config in CONFIGS:
        ticks = sum(c["makespan"] for w, c in gate.counts.items() if config_is(config)(w))
        m[f"engine.makespan_ticks.{config}"] = (ticks, "ticks")
    spawned = sums["spawned"]
    m["policies.steals"] = (sums["steals"], "count")
    m["policies.yields"] = (sums["yields"], "count")
    m["policies.throttle_ratio"] = (sums["throttled"] / spawned if spawned else 0.0, "ratio")
    m["policies.scatter_ratio"] = (sums["scattered"] / spawned if spawned else 0.0, "ratio")

    m["task_graph.validate_s"] = (med(lambda e: total(e, "validate")), "s")
    m["task_graph.critical_path_s"] = (med(lambda e: total(e, "critical_path")), "s")
    m["task_graph.graph_json_s"] = (med(lambda e: total(e, "graph_to_json", "graph_from_json")), "s")
    m["task_graph.self_s"] = (med(lambda e: layer_total(e, "task_graph")), "s")
    m["task_graph.tasks"] = (sum(len(g.tasks) for g in wl.graphs.values()), "count")
    m["task_graph.actions"] = (
        sum(len(t.actions) for g in wl.graphs.values() for t in g.tasks), "count")

    growth = {"task_graph.validate_growth": 0.0, "task_graph.critical_path_growth": 0.0,
              "engine.self_growth": 0.0}
    if wl.chain_depths:
        def log2_ratio(fn):
            small, large = (med(lambda e: fn(e, f"d{d}-")) for d in wl.chain_depths)
            return math.log2(large / small) if small > 0 and large > 0 else 0.0

        def prefixed(prefix):
            return lambda w: w.startswith(prefix)

        growth["task_graph.validate_growth"] = log2_ratio(
            lambda e, d: total(e, "validate", where=prefixed(d)))
        growth["task_graph.critical_path_growth"] = log2_ratio(
            lambda e, d: total(e, "critical_path", where=prefixed(d)))
        growth["engine.self_growth"] = log2_ratio(
            lambda e, d: engine_self(e, where=prefixed(d + "taskwait/")))
    for name, value in growth.items():
        m[name] = (value, "log2")

    m["analysis.analyze_s"] = (med(lambda e: total(e, "analyze")), "s")
    m["analysis.compare_s"] = (med(lambda e: total(e, "compare")), "s")
    m["analysis.validate_trace_s"] = (med(lambda e: total(e, "validate_trace")), "s")
    m["analysis.gantt_svg_s"] = (med(lambda e: total(e, "gantt_svg")), "s")
    m["analysis.self_s"] = (med(lambda e: layer_total(e, "analysis")), "s")

    by_pipe = group_spans(spans, pipe_ids)
    for step in ("generate", "simulate", "compare", "report"):
        m[f"cli.{step}_s"] = (median([total(by_pipe[p], f"cli.{step}") for p in pipe_ids]), "s")

    by_setup = group_spans(spans, setup_ids)
    m["generators.generate_s"] = (median([total(by_setup[i], "generate") for i in setup_ids]), "s")

    # Every operation span is a direct child of its experiment span.
    walls = {s.experiment: s.seconds for s in spans if s.name == "experiment"}
    traced_wall = median([walls[e] for e in traced_ids])
    m["bench.self_s"] = (
        median([walls[e] - sum(s.seconds for s in by_exp[e]) for e in traced_ids]), "s")
    m["traced_experiment_s"] = (traced_wall, "s")
    m["tracing_overhead_s"] = (traced_wall - median(untraced_walls), "s")
    m["failed_ratio"] = (rec.failed / rec.attempted, "ratio")
    return m


def write_spans(rec, args, header):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}-{args.scale}.json"
    spans = [s._asdict() for s in rec.spans if s is not None]
    path.write_text(json.dumps({"run": header, "spans": spans}, indent=1))
    return path


# --- main -----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["enclave-throttle", "poll-storm", "deep-chain"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: small graphs for the self-test")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="stored trace digests (default: perfbench/digests.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schedsim" / "__init__.py").is_file():
        print(f"error: no schedsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rec = Recorder(tracing=bool(args.trace))

    # Set-ups are spread over the run, like the other samples: a batch
    # before the first round and one after every round.
    setups = []
    ss, wl = set_up_batch(rec, args, setups)
    calibrations = [host_calibration_s()]
    header = {
        "workload": args.workload, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "scale": args.scale,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds, "trace": args.trace,
    }
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in header.items()), flush=True)

    stored = load_stored_digests(args.digests, args.scale, args.seed, args.workload)
    gate = Gate(stored)
    if stored is None:
        print(f"# no stored digests for seed {args.seed}: checking repeats only")

    # Rounds interleave experiments and CLI pipelines, so that every
    # metric samples the whole run; --trace 1 alternates the order of the
    # untraced and the traced experiment from round to round.
    run_end = rec.elapsed() + args.seconds
    modes = [False, True] if args.trace else [False]
    walls, sims, traced_ids, cli_walls = {}, {}, [], {}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        while rec.elapsed() < RUN_CAP_S and (len(walls) < MIN_ROUNDS or rec.elapsed() < run_end):
            round_no = len(walls)
            for traced in modes if round_no % 2 == 0 else modes[::-1]:
                gc.collect()
                rec.tracing = traced
                exp_id = f"{'traced' if traced else 'exp'}-{round_no}"
                wall, sim_s, done = experiment(rec, ss, wl, gate, exp_id)
                if traced:
                    traced_ids.append(exp_id)
                else:
                    walls[exp_id] = wall
                    sims[exp_id] = (sim_s, done)
            gc.collect()
            rec.tracing = bool(args.trace)
            pipe_id = f"cli-{round_no}"
            cli_walls[pipe_id] = cli_pipeline(rec, ss, wl, gate, workdir, pipe_id, check=round_no == 0)
            if round_no == 0:
                # Later rounds only add allocator fragmentation, and how many
                # there are depends on the host's speed.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ss, wl = set_up_batch(rec, args, setups)
            calibrations.append(host_calibration_s())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# host: calibration loop median {median(calibrations):.6g} s "
          f"over {len(calibrations)} calibrations")
    if args.trace:
        metrics = per_layer_metrics(rec, wl, gate, traced_ids, list(walls.values()),
                                    list(cli_walls), [setup_id for setup_id, _, _ in setups])
        metrics["host.calibration_s"] = (median(calibrations), "s")
        header["spans"] = str(write_spans(rec, args, header).relative_to(ROOT))
        print(f"# spans written to {header['spans']}")
    else:
        experiment_s = list(walls.values())
        cli_s = list(cli_walls.values())
        metrics = {
            "experiment_s": (median(experiment_s), "s"),
            "sim_tasks_per_s": (median([done / sim_s if sim_s > 0 else 0.0
                                        for sim_s, done in sims.values()]), "1/s"),
            "cli_s": (median(cli_s), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (median([seconds for _, seconds, _ in setups]), "s"),
        }
        print(f"# experiment_s: median of {len(experiment_s)} experiments{tail_note(experiment_s)}")
        print(f"# cli_s: median of {len(cli_s)} pipelines{tail_note(cli_s)}")
        print(f"# setup_s: median of {len(setups)} set-ups; generate part "
              f"{median([gen for _, _, gen in setups]):.6g} s")

    for (name, where, reason), count in sorted(rec.failures.items()):
        print(f"# FAILED {name} [{where}]: {reason} x{count}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict layouts, and with them the
        # peak memory (up to 10 % on deep-chain) and some timings: fix it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
