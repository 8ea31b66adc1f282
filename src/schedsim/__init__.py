"""Deterministic what-if simulator for OpenMP-style task scheduling.

Each public name loads its home module on first use (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "task_graph": "Action Compute CyclicDependencyError DeferMode PollOutcome Spawn TaskGraph TaskSpec "
    "TaskgroupEnd TaskwaitChildren WaitMode YieldMode critical_path total_work validate",
    "policies": "PolicyConfig PolicyKind extended fcfs reference",
    "trace": "Outcome ScheduleTrace",
    "engine": "SimConfig simulate",
    "analysis": "analyze compare render_gantt_svg validate_trace",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
