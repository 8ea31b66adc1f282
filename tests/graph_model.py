"""The graph file layout as a dict, kept only as a test oracle:
``graph_to_json`` must write exactly ``json.dumps(graph_to_dict(graph,
meta), indent=2)``."""

from schedsim.task_graph import Compute, PollOutcome, Spawn, TaskgroupEnd, TaskwaitChildren


def action_to_dict(action) -> dict:
    if isinstance(action, Compute):
        return {"type": "compute", "duration": action.duration}
    if isinstance(action, Spawn):
        return {"type": "spawn", "child": action.child, "defer": action.defer.value}
    if isinstance(action, PollOutcome):
        return {
            "type": "poll",
            "target": action.target,
            "yield_mode": action.yield_mode.value,
            "poll_cost": action.poll_cost,
        }
    if isinstance(action, TaskwaitChildren):
        return {"type": "taskwait_children", "mode": action.mode.value}
    if isinstance(action, TaskgroupEnd):
        return {"type": "taskgroup_end", "mode": action.mode.value}
    raise TypeError(f"unknown action {action!r}")


def graph_to_dict(graph, meta=None) -> dict:
    out = {}
    if meta:
        out["meta"] = dict(meta)
    out["tasks"] = [
        {
            "id": spec.id,
            "priority": spec.priority,
            "tied": spec.tied,
            "label": spec.label,
            "actions": [action_to_dict(a) for a in spec.actions],
        }
        for spec in graph.tasks
    ]
    out["roots"] = list(graph.roots)
    return out
