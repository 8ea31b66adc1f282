"""Byte-identity check: one sha256 per simulated trace over a fixed corpus.

The corpus draws ``poll_graph``s, ``sample_graph``s and latency
``tied_forest``s (1 to 6 roots) from SplitMix64 streams seeded 2024,
2025 and 2026, one stream per family, with the drawers of
``tests/graph_draws.py``.  It simulates each graph under the ten
``CONFIGS`` on 1 to 8 threads with ``max_virtual_time=10_000`` and
hashes each trace's ``to_json()``.  ``--slice N`` keeps the first N
graphs of each family, so a slice is a prefix of the full corpus.

    python scripts/bytecheck.py --write digests.json
    python scripts/bytecheck.py --against ../other-checkout
    python scripts/bytecheck.py --write slice.json --slice 20

``--write`` runs the corpus in this checkout and writes the recipe and
the digests.  ``--against DIR`` runs it here and, in a subprocess, with
the ``schedsim`` of the checkout at DIR; both draw their graphs with this
checkout's drawers.  On a mismatch it prints the first differing segment
or event: its index, both values, the graph, the config and the thread
count, and exits 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2024
FAMILIES = {"poll": 2000, "sample": 300, "forest": 300}  # graphs per family in the full corpus
THREADS = range(1, 9)
MAX_VIRTUAL_TIME = 10_000
CONFIGS = {
    "reference": ("reference", {}),
    "reference-bound-2": ("reference", {"queue_bound": 2}),
    "reference-unbounded": ("reference", {"queue_bound": None}),
    "fcfs": ("fcfs", {}),
    "extended": ("extended", {}),
    "extended-bound-2": ("extended", {"queue_bound": 2}),
    "extended-unaware": ("extended", {"priority_aware": False}),
    "extended-no-fair-yield": ("extended", {"fair_yield": False}),
    "extended-no-latency-wait": ("extended", {"honor_latency_wait": False}),
    "extended-bound-1-no-scatter": ("extended", {"queue_bound": 1, "scatter_on_overflow": False}),
}


def recipe(size: int | None) -> dict:
    counts = {family: count if size is None else min(size, count) for family, count in FAMILIES.items()}
    return {
        "seeds": {family: SEED + i for i, family in enumerate(FAMILIES)},
        "graphs": counts,
        "configs": {name: [kind, kwargs] for name, (kind, kwargs) in CONFIGS.items()},
        "threads": list(THREADS),
        "max_virtual_time": MAX_VIRTUAL_TIME,
    }


def corpus(spec: dict):
    """Yield ``(name, graph)`` for every graph of the recipe, in order."""
    from graph_draws import poll_graph, sample_graph, tied_forest
    from schedsim.prng import SplitMix64

    draw = {
        "poll": poll_graph,
        "sample": sample_graph,
        "forest": lambda rng: tied_forest(rng, rng.randint(1, 6), latency=True),
    }
    for family, count in spec["graphs"].items():
        rng = SplitMix64(spec["seeds"][family])
        for i in range(count):
            yield f"{family}-{i}", draw[family](rng)


def runs(spec: dict):
    """Yield ``(config name, SimConfig)`` for every run of one graph, in order."""
    from schedsim import policies
    from schedsim.engine import SimConfig

    for name, (kind, kwargs) in spec["configs"].items():
        policy = getattr(policies, kind)(**kwargs)
        for threads in spec["threads"]:
            yield name, SimConfig(thread_count=threads, policy=policy, max_virtual_time=spec["max_virtual_time"])


def digests(spec: dict) -> dict:
    from schedsim.engine import simulate

    configs = list(runs(spec))
    return {
        name: [hashlib.sha256(simulate(graph, cfg).to_json().encode()).hexdigest() for _, cfg in configs]
        for name, graph in corpus(spec)
    }


def write(path: str, spec: dict) -> None:
    rows = [f"  {json.dumps(name)}: {json.dumps(hashes)}" for name, hashes in digests(spec).items()]
    text = '{\n"recipe": %s,\n"digests": {\n%s\n}\n}\n' % (json.dumps(spec), ",\n".join(rows))
    Path(path).write_text(text)


def trace_json(spec: dict, graph_name: str, run: int) -> str:
    from schedsim.engine import simulate

    graph = next(graph for name, graph in corpus(spec) if name == graph_name)
    return simulate(graph, list(runs(spec))[run][1]).to_json()


def this_script(src: Path, *args) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--src", str(src), *args]


def first_difference(ours: dict, theirs: dict) -> str:
    for field in ("segments", "events"):
        here, there = ours[field], theirs[field]
        for index in range(max(len(here), len(there))):
            a = here[index] if index < len(here) else None  # None: the trace has no such record
            b = there[index] if index < len(there) else None
            if a != b:
                return f"{field[:-1]} {index}: here {a}, there {b}"
    fields = ("thread_count", "makespan", "outcome")
    return "; ".join(f"{f}: here {ours[f]}, there {theirs[f]}" for f in fields if ours[f] != theirs[f])


def against(other: Path, spec: dict, size: int | None) -> int:
    slice_args = [] if size is None else ["--slice", str(size)]
    with tempfile.TemporaryDirectory() as tmp:
        theirs_path = Path(tmp) / "theirs.json"
        child = subprocess.Popen(this_script(other / "src", "--write", str(theirs_path), *slice_args))
        ours = digests(spec)
        if child.wait() != 0:
            print(f"error: the corpus run in {other} failed", file=sys.stderr)
            return 2
        theirs = json.loads(theirs_path.read_text())["digests"]
    mismatched = [(g, r) for g in ours for r, (a, b) in enumerate(zip(ours[g], theirs[g])) if a != b]
    total = sum(map(len, ours.values()))
    if not mismatched:
        print(f"identical: {total} traces of {len(ours)} graphs")
        return 0
    graph_name, run = mismatched[0]
    there = subprocess.run(
        this_script(other / "src", "--trace", graph_name, str(run), *slice_args),
        check=True, capture_output=True, text=True,
    ).stdout
    difference = first_difference(json.loads(trace_json(spec, graph_name, run)), json.loads(there))
    config, cfg = list(runs(spec))[run]
    print(f"{len(mismatched)} of {total} traces differ; first: graph {graph_name}, config {config}, "
          f"{cfg.thread_count} threads: {difference}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="write the recipe and one sha256 per trace")
    mode.add_argument("--against", metavar="DIR", help="compare this checkout with the one at DIR")
    mode.add_argument("--trace", nargs=2, metavar=("GRAPH", "RUN"), help=argparse.SUPPRESS)
    parser.add_argument("--slice", type=int, metavar="N", help="only the first N graphs of each family")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.slice is not None and args.slice < 1:
        parser.error("--slice must be a positive int")
    sys.path[:0] = [args.src, str(ROOT / "tests")]
    spec = recipe(args.slice)
    if args.write:
        write(args.write, spec)
        return 0
    if args.trace:
        sys.stdout.write(trace_json(spec, args.trace[0], int(args.trace[1])))
        return 0
    return against(Path(args.against).resolve(), spec, args.slice)


if __name__ == "__main__":
    sys.exit(main())
