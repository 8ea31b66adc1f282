"""Which layers each CLI subcommand loads, and the package's lazy exports.

``schedsim`` resolves its public names on first use, so a fresh
interpreter running one subcommand imports only the modules that
subcommand runs.  Each check here runs in a new interpreter, since the
test process itself has every layer loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schedsim
from schedsim import engine, trace
from schedsim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

COMMON = {"schedsim", "schedsim.cli", "schedsim.jsontext", "schedsim.task_graph"}
LOADED = {
    "generate": COMMON | {"schedsim.generators", "schedsim.prng"},
    "simulate": COMMON | {"schedsim.policies", "schedsim.trace", "schedsim.engine"},
    "compare": COMMON | {"schedsim.trace", "schedsim.analysis"},
    "report": COMMON | {"schedsim.trace", "schedsim.analysis"},
}

# The public names as they stood when every layer was imported eagerly,
# each with the module that defines it.
HOMES = {
    "Action": "task_graph",
    "Compute": "task_graph",
    "CyclicDependencyError": "task_graph",
    "DeferMode": "task_graph",
    "Outcome": "trace",
    "PolicyConfig": "policies",
    "PolicyKind": "policies",
    "PollOutcome": "task_graph",
    "ScheduleTrace": "trace",
    "SimConfig": "engine",
    "Spawn": "task_graph",
    "TaskGraph": "task_graph",
    "TaskSpec": "task_graph",
    "TaskgroupEnd": "task_graph",
    "TaskwaitChildren": "task_graph",
    "WaitMode": "task_graph",
    "YieldMode": "task_graph",
    "analyze": "analysis",
    "compare": "analysis",
    "critical_path": "task_graph",
    "extended": "policies",
    "fcfs": "policies",
    "reference": "policies",
    "render_gantt_svg": "analysis",
    "simulate": "engine",
    "total_work": "task_graph",
    "validate": "task_graph",
    "validate_trace": "analysis",
}


def fresh(code: str, cwd) -> str:
    """stdout of `code` run by a new interpreter that imports schedsim from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    assert main(["generate", "enclave", "--k", "2", "-o", str(tmp / "graph.json")]) == 0
    assert main(["simulate", str(tmp / "graph.json"), "--threads", "2", "-o", str(tmp / "a.json")]) == 0
    assert main(["simulate", str(tmp / "graph.json"), "--policy", "fcfs", "-o", str(tmp / "b.json")]) == 0
    return tmp


ARGV = {
    "generate": ["generate", "starvation", "--t", "2", "--c", "5", "--e", "3", "-o", "out.json"],
    "simulate": ["simulate", "graph.json", "--threads", "2", "-o", "out.json"],
    "compare": ["compare", "graph.json", "a.json", "b.json"],
    "report": ["report", "graph.json", "a.json", "--svg", "out.svg"],
}


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_subcommand_loads_only_its_layers(pipeline_files, command):
    code = (
        "import contextlib, io, json, sys\n"
        "from schedsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({ARGV[command]!r})\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'schedsim')]))\n"
    )
    status, modules = json.loads(fresh(code, pipeline_files))
    assert status == 0
    assert set(modules) == LOADED[command]


def test_importing_the_package_loads_no_layer(tmp_path):
    code = "import sys, schedsim; print(sorted(m for m in sys.modules if m.startswith('schedsim')))"
    assert fresh(code, tmp_path).split() == ["['schedsim']"]


def test_all_is_unchanged():
    assert schedsim.__all__ == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_export_is_the_object_in_its_home_module(name):
    home = importlib.import_module(f"schedsim.{HOMES[name]}")
    assert getattr(schedsim, name) is getattr(home, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from schedsim import *", namespace)
    for name in HOMES:
        assert namespace[name] is getattr(schedsim, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schedsim.no_such_name
    assert not hasattr(schedsim, "no_such_name")
    with pytest.raises(ImportError):
        exec("from schedsim import no_such_name", {})


# What the benchmark and the tests read from the engine module.
ENGINE_NAMES = [
    "DEFAULT_MAX_VIRTUAL_TIME",
    "EngineError",
    "EventKind",
    "InvalidGraphError",
    "MAX_THREADS",
    "Outcome",
    "ScheduleTrace",
    "Segment",
    "SegmentKind",
    "SimConfig",
    "TraceEvent",
    "_Engine",
    "simulate",
]


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_still_exports(name):
    assert hasattr(engine, name)
    if hasattr(trace, name):
        assert getattr(engine, name) is getattr(trace, name)
