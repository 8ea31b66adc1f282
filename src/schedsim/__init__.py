"""Deterministic what-if simulator for OpenMP-style task scheduling."""

from .task_graph import (
    Action,
    Compute,
    CyclicDependencyError,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    TaskgroupEnd,
    TaskwaitChildren,
    WaitMode,
    YieldMode,
    critical_path,
    total_work,
    validate,
)
from .policies import PolicyConfig, PolicyKind, extended, fcfs, reference
from .engine import Outcome, ScheduleTrace, SimConfig, simulate
from .analysis import analyze, compare, render_gantt_svg, validate_trace

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Compute",
    "CyclicDependencyError",
    "DeferMode",
    "Outcome",
    "PolicyConfig",
    "PolicyKind",
    "PollOutcome",
    "ScheduleTrace",
    "SimConfig",
    "Spawn",
    "TaskGraph",
    "TaskSpec",
    "TaskgroupEnd",
    "TaskwaitChildren",
    "WaitMode",
    "YieldMode",
    "analyze",
    "compare",
    "critical_path",
    "extended",
    "fcfs",
    "reference",
    "render_gantt_svg",
    "simulate",
    "total_work",
    "validate",
    "validate_trace",
]
