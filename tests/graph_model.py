"""Test oracles for the graph layer: the graph file layout as a dict
(``graph_to_json`` must write exactly ``json.dumps(graph_to_dict(graph,
meta), indent=2)``) and the per-action critical-path kernel
(``critical_path`` must return exactly ``reference_critical_path``)."""

from schedsim.task_graph import (
    Compute,
    CyclicDependencyError,
    DeferMode,
    PollOutcome,
    Spawn,
    TaskgroupEnd,
    TaskwaitChildren,
    spawn_parents,
    wait_members,
)


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


def reference_critical_path(graph):
    """The critical path with one node per action and one edge list per
    node, built straight from the edge rules; ``critical_path`` must
    return exactly this, length and path, tie-break included."""
    # Real nodes are (task, action_idx) plus a final (task, len(actions))
    # completion node, numbered in (task, idx) order, so comparing node
    # numbers is comparing (task, idx).  After them comes one zero-weight
    # "subtree done" node per task: up(t) follows t's completion and the
    # up nodes of its children, so a group end needs one edge per member
    # instead of one per descendant.
    tasks = graph.tasks
    first = []  # task id -> number of its (task, 0) node
    weight = []
    owner = []
    for spec in tasks:
        first.append(len(weight))
        for action in spec.actions:
            weight.append(action.duration if isinstance(action, Compute) else 0)
        weight.append(0)
        owner.extend([spec.id] * (len(spec.actions) + 1))
    up = len(weight)
    total = up + len(tasks)
    weight.extend([0] * len(tasks))

    def done(task_id):
        return first[task_id] + len(tasks[task_id].actions)

    edges = [[] for _ in range(total)]
    for child, (parent, _) in spawn_parents(graph).items():
        edges[up + child].append(up + parent)
    for spec in tasks:
        node = first[spec.id]
        edges[node + len(spec.actions)].append(up + spec.id)
        for idx, action in enumerate(spec.actions):
            edges[node].append(node + 1)
            if isinstance(action, Spawn):
                edges[node].append(first[action.child])
                if action.defer is DeferMode.UNDEFERRED:
                    edges[done(action.child)].append(node + 1)
            elif isinstance(action, TaskwaitChildren):
                for child in wait_members(spec, idx):
                    edges[done(child)].append(node)
            elif isinstance(action, TaskgroupEnd):
                for member in wait_members(spec, idx):
                    edges[up + member].append(node)
            elif isinstance(action, PollOutcome):
                edges[done(action.target)].append(node)
            node += 1

    # Longest path over the DAG; Kahn order doubles as the cycle check.
    # Any topological order gives the same lengths and choices below.
    indeg = [0] * total
    for outs in edges:
        for dst in outs:
            indeg[dst] += 1
    topo = [i for i, d in enumerate(indeg) if d == 0]
    for cur in topo:  # topo grows while it is walked
        for dst in edges[cur]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                topo.append(dst)
    if len(topo) != total:
        raise CyclicDependencyError("poll/wait/spawn edges form a cycle")

    best = [0] * total  # best length from node to any sink, inclusive
    succ = [None] * total
    # Tie-break rank: a real node ranks as itself, an up node as the real
    # node its chosen successors lead to, which keeps "smallest (task, idx)"
    # exact over the real nodes an up node stands for.
    rank = list(range(total))
    for i in reversed(topo):
        best_next, chosen = 0, None
        for dst in edges[i]:
            if best[dst] > best_next:
                best_next, chosen = best[dst], dst
            elif best[dst] == best_next and chosen is not None and rank[dst] < rank[chosen]:
                chosen = dst
        best[i] = weight[i] + best_next
        succ[i] = chosen
        if i >= up and chosen is not None:
            rank[i] = rank[chosen]

    starts = [first[root] for root in graph.roots]
    if not starts:
        return 0, []
    start = min(starts, key=lambda i: (-best[i], i))

    path = []
    cur = start
    while cur is not None:
        if weight[cur] > 0 and (not path or path[-1] != owner[cur]):
            path.append(owner[cur])
        cur = succ[cur]
    return best[start], path
