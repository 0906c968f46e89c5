"""Dinic's maximum-flow algorithm on capacitated directed networks.

This is the substrate for Goldberg's exact densest-subgraph algorithm
([12] in the paper), which the library uses as the polynomial-time oracle
for densest subgraph on graphs with *positive* weights (e.g. on ``GD+``).

The implementation is the classic BFS-level / DFS-blocking-flow scheme
with the current-arc optimisation, giving ``O(V^2 E)`` in general and much
better behaviour on the unit-ish networks produced by the densest
subgraph reduction.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Hashable, List, Set, Tuple

Node = Hashable


class FlowNetwork:
    """A directed flow network with float capacities.

    Arcs are stored in a flat edge list; each arc ``e`` and its reverse
    ``e ^ 1`` are adjacent in the list, the standard trick that makes
    residual updates O(1).
    """

    __slots__ = ("_head", "_capacity", "_out", "_nodes")

    def __init__(self) -> None:
        self._head: List[int] = []
        self._capacity: List[float] = []
        self._out: Dict[Node, List[int]] = {}
        self._nodes: Dict[Node, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Register *node* (no-op if present)."""
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)
            self._out[node] = []

    def add_arc(self, u: Node, v: Node, capacity: float) -> int:
        """Add a directed arc ``u -> v``; returns its arc id.

        A zero-capacity reverse arc is added automatically.  Negative
        capacities are rejected.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity} on arc {u}->{v}")
        self.add_node(u)
        self.add_node(v)
        arc_id = len(self._head)
        self._head.append(self._node_id(v))
        self._capacity.append(capacity)
        self._out[u].append(arc_id)
        self._head.append(self._node_id(u))
        self._capacity.append(0.0)
        self._out[v].append(arc_id + 1)
        return arc_id

    def add_undirected(self, u: Node, v: Node, capacity: float) -> int:
        """Add an undirected edge: both directions get *capacity*."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity} on edge {u}--{v}")
        self.add_node(u)
        self.add_node(v)
        arc_id = len(self._head)
        self._head.append(self._node_id(v))
        self._capacity.append(capacity)
        self._out[u].append(arc_id)
        self._head.append(self._node_id(u))
        self._capacity.append(capacity)
        self._out[v].append(arc_id + 1)
        return arc_id

    def _node_id(self, node: Node) -> int:
        return self._nodes[node]


def max_flow(
    network: FlowNetwork, source: Node, sink: Node, tol: float = 1e-12
) -> float:
    """Run Dinic's algorithm; returns the max-flow value.

    The network's residual capacities are mutated in place (so a min cut
    can be read off afterwards with :func:`min_cut_side`).  *tol* guards
    float underflow: arcs with residual below *tol* count as saturated.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    nodes = network._nodes
    if source not in nodes or sink not in nodes:
        raise KeyError("source/sink not in network")
    ids = {node: i for node, i in nodes.items()}
    n = len(ids)
    out_arcs: List[List[int]] = [[] for _ in range(n)]
    for node, arcs in network._out.items():
        out_arcs[ids[node]] = arcs
    head = network._head
    capacity = network._capacity
    s, t = ids[source], ids[sink]
    total = 0.0

    while True:
        # BFS to build the level graph.
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in out_arcs[u]:
                v = head[arc]
                if capacity[arc] > tol and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        # DFS blocking flow with the current-arc optimisation.
        pointer = [0] * n

        def push(u: int, limit: float) -> float:
            if u == t:
                return limit
            while pointer[u] < len(out_arcs[u]):
                arc = out_arcs[u][pointer[u]]
                v = head[arc]
                if capacity[arc] > tol and level[v] == level[u] + 1:
                    sent = push(v, min(limit, capacity[arc]))
                    if sent > tol:
                        capacity[arc] -= sent
                        capacity[arc ^ 1] += sent
                        return sent
                pointer[u] += 1
            return 0.0

        while True:
            sent = push(s, math.inf)
            if sent <= tol:
                break
            total += sent


def min_cut_side(
    network: FlowNetwork, source: Node, tol: float = 1e-12
) -> Set[Node]:
    """Source side of a minimum cut after :func:`max_flow` has run.

    Returns the set of nodes reachable from *source* in the residual
    network; by max-flow/min-cut duality this is a minimum s-t cut.
    """
    nodes = network._nodes
    reverse = {i: node for node, i in nodes.items()}
    ids = dict(nodes)
    out_arcs: Dict[int, List[int]] = {
        ids[node]: arcs for node, arcs in network._out.items()
    }
    head = network._head
    capacity = network._capacity
    start = ids[source]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for arc in out_arcs[u]:
            v = head[arc]
            if capacity[arc] > tol and v not in seen:
                seen.add(v)
                stack.append(v)
    return {reverse[i] for i in seen}


def min_st_cut_value(
    edges: List[Tuple[Node, Node, float]], source: Node, sink: Node
) -> Tuple[float, Set[Node]]:
    """Convenience: min s-t cut of a directed arc list.

    Returns ``(cut_value, source_side)``.  Used by tests to cross-check
    Dinic against brute-force enumeration on small networks.
    """
    network = FlowNetwork()
    network.add_node(source)
    network.add_node(sink)
    for u, v, cap in edges:
        network.add_arc(u, v, cap)
    value = max_flow(network, source, sink)
    side = min_cut_side(network, source)
    return value, side
