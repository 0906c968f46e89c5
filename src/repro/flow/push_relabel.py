"""Push-relabel maximum flow (FIFO, with the gap heuristic).

A second max-flow engine next to :mod:`repro.flow.dinic`, kept as an
independent cross-check: the test suite compares its flow values with
Dinic's on the same networks.  Goldberg's densest-subgraph reduction
[12] (:mod:`repro.flow.goldberg`) runs on Dinic only.

Implementation notes:

* FIFO active-vertex queue, ``O(V^3)`` worst case;
* the *gap heuristic*: when some label ``h`` has no vertices, every
  vertex with label in ``(h, n)`` is lifted to ``n + 1`` (unreachable),
  a large practical win on cut-style networks;
* works on the same arc-list representation as Dinic
  (:class:`repro.flow.dinic.FlowNetwork`), mutating residual capacities
  in place so :func:`repro.flow.dinic.min_cut_side` applies unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.flow.dinic import FlowNetwork, Node


def max_flow_push_relabel(
    network: FlowNetwork, source: Node, sink: Node, tol: float = 1e-12
) -> float:
    """Max flow via FIFO push-relabel; returns the flow value.

    Residual capacities are mutated in place, exactly like
    :func:`repro.flow.dinic.max_flow`.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    nodes = network._nodes
    if source not in nodes or sink not in nodes:
        raise KeyError("source/sink not in network")
    n = len(nodes)
    ids = dict(nodes)
    out_arcs: List[List[int]] = [[] for _ in range(n)]
    for node, arcs in network._out.items():
        out_arcs[ids[node]] = arcs
    head = network._head
    capacity = network._capacity
    s, t = ids[source], ids[sink]

    height = [0] * n
    excess = [0.0] * n
    count_at_height: Dict[int, int] = {0: n}
    height[s] = n
    count_at_height[0] -= 1
    count_at_height[n] = count_at_height.get(n, 0) + 1

    queue: deque = deque()

    def push(u: int, arc: int) -> None:
        v = head[arc]
        amount = min(excess[u], capacity[arc])
        capacity[arc] -= amount
        capacity[arc ^ 1] += amount
        excess[u] -= amount
        if excess[v] <= tol and v != s and v != t:
            queue.append(v)
        excess[v] += amount

    # Saturate all source arcs.
    for arc in out_arcs[s]:
        if capacity[arc] > tol:
            excess[s] += capacity[arc]
            push(s, arc)

    pointer = [0] * n
    while queue:
        u = queue.popleft()
        if u == s or u == t:
            continue
        while excess[u] > tol:
            if pointer[u] == len(out_arcs[u]):
                # Relabel: lift u just above its lowest admissible
                # neighbour; apply the gap heuristic first.
                old = height[u]
                count_at_height[old] -= 1
                if count_at_height[old] == 0 and old < n:
                    # Gap: heights above `old` (below n) are disconnected.
                    for w in range(n):
                        if old < height[w] < n and w != s:
                            count_at_height[height[w]] -= 1
                            height[w] = n + 1
                            count_at_height[n + 1] = (
                                count_at_height.get(n + 1, 0) + 1
                            )
                lowest = None
                for arc in out_arcs[u]:
                    if capacity[arc] > tol:
                        h = height[head[arc]]
                        if lowest is None or h < lowest:
                            lowest = h
                if lowest is None:
                    # No residual arcs at all: excess is stuck (can only
                    # happen with zero excess up to tolerance).
                    height[u] = n + 1
                    count_at_height[n + 1] = count_at_height.get(n + 1, 0) + 1
                    break
                height[u] = lowest + 1
                count_at_height[height[u]] = (
                    count_at_height.get(height[u], 0) + 1
                )
                pointer[u] = 0
                if height[u] > 2 * n:
                    break
            else:
                arc = out_arcs[u][pointer[u]]
                v = head[arc]
                if capacity[arc] > tol and height[u] == height[v] + 1:
                    push(u, arc)
                else:
                    pointer[u] += 1
    return excess[t]
