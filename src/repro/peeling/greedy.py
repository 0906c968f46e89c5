"""Greedy peeling for densest subgraph (Algorithm 1 of the paper).

Charikar's greedy [7]: repeatedly delete the vertex of minimum induced
weighted degree and keep the best prefix by average degree.  Two points
distinguish this implementation from the textbook one:

* **Signed weights.**  On difference graphs, deleting a vertex can
  *increase* a neighbour's degree (negative incident edge), so the
  priority structure must support both key directions.  All backends do:
  an addressable :class:`~repro.structures.heap.IndexedHeap`, the
  :class:`~repro.structures.segment_tree.MinSegmentTree` the paper
  suggests, and a vectorised ``"sparse"`` backend (NumPy degree array
  over a :class:`~repro.graph.sparse.CSRAdjacency` plus a lazy binary
  heap).  On positive-weight graphs the greedy retains its classic
  2-approximation guarantee; on signed graphs it is a heuristic (DCSAD is
  ``O(n^{1-eps})``-inapproximable, Corollary 1).
* **Density convention.**  Average degree is the paper's
  ``rho(S) = W(S)/|S|`` with ``W`` the total degree (each edge twice).

Complexity: ``O((n + m) log n)`` with every backend.  The backends can
differ on exact ties (equal minimum degrees pop in backend-specific
order), so on degenerate inputs the returned subsets may legitimately
differ while having equal density.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.engine.registry import PeelBackend as Backend
from repro.engine.registry import resolve_backend
from repro.graph.graph import Graph, Vertex
from repro.structures.heap import IndexedHeap
from repro.structures.segment_tree import MinSegmentTree

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.graph.sparse import CSRAdjacency

#: ``"python"`` is accepted as an alias of ``"heap"`` (the default
#: pure-Python priority structure), so callers can use the same
#: backend vocabulary across every solver layer; the names resolve
#: through the engine registry (:mod:`repro.engine.registry`).


@dataclass(frozen=True)
class PeelResult:
    """Outcome of a greedy peel.

    Attributes
    ----------
    subset:
        The best prefix ``S`` (maximum average degree seen).
    density:
        ``rho(S) = W(S)/|S|`` of that prefix.
    order:
        Vertices in removal order (first removed first).
    densities:
        ``densities[k]`` is the average degree of the graph after the
        first ``k`` removals, i.e. the density profile of the whole peel
        (``densities[0]`` is the full graph).  Useful for the analysis
        plots and for tests.
    """

    subset: Set[Vertex]
    density: float
    order: List[Vertex] = field(repr=False)
    densities: List[float] = field(repr=False)


def greedy_peel(
    graph: Graph,
    backend: Backend = "heap",
    adjacency: Optional["CSRAdjacency"] = None,
) -> PeelResult:
    """Run Algorithm 1 on *graph* and return the best prefix.

    *backend* resolves through the engine registry; *adjacency* hands a
    CSR-capable backend the graph's prebuilt frozen adjacency (the
    :class:`~repro.engine.prepared.PreparedGraph` sharing contract).

    Raises ``ValueError`` on an empty graph (Algorithm 2 handles the
    empty/edgeless special cases before calling this).
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot peel an empty graph")
    solver_backend = resolve_backend(backend)
    solver_backend.check_adjacency(adjacency)
    return solver_backend.peel(graph, adjacency=adjacency)


def _peel_heap(graph: Graph) -> PeelResult:
    degrees: Dict[Vertex, float] = {
        u: graph.degree(u) for u in graph.vertices()
    }
    heap: IndexedHeap = IndexedHeap(degrees.items())
    return _peel_loop(graph, degrees, heap_pop=heap.pop_min, heap_adjust=heap.adjust, alive=lambda u: u in heap)


def _peel_segment_tree(graph: Graph) -> PeelResult:
    vertices = list(graph.vertices())
    slot_of = {u: i for i, u in enumerate(vertices)}
    degrees: Dict[Vertex, float] = {u: graph.degree(u) for u in vertices}
    tree = MinSegmentTree([degrees[u] for u in vertices])

    def pop_min():
        slot, key = tree.argmin()
        tree.deactivate(slot)
        return vertices[slot], key

    def adjust(u: Vertex, delta: float) -> None:
        tree.adjust(slot_of[u], delta)

    def alive(u: Vertex) -> bool:
        return tree.is_active(slot_of[u])

    return _peel_loop(graph, degrees, heap_pop=pop_min, heap_adjust=adjust, alive=alive)


def _peel_loop(graph, degrees, heap_pop, heap_adjust, alive) -> PeelResult:
    remaining = set(degrees)
    total_degree = sum(degrees.values())  # = 2 * once-counted weight
    size = len(remaining)

    order: List[Vertex] = []
    densities: List[float] = []
    best_density = total_degree / size
    best_size = size
    densities.append(best_density)

    while size > 1:
        vertex, _ = heap_pop()
        order.append(vertex)
        remaining.discard(vertex)
        for neighbor, weight in graph.neighbors(vertex).items():
            if alive(neighbor):
                heap_adjust(neighbor, -weight)
                # Each removed undirected edge contributes twice to the
                # total degree: once at each endpoint.
                total_degree -= 2.0 * weight
        size -= 1
        density = total_degree / size
        densities.append(density)
        if density > best_density:
            best_density = density
            best_size = size

    # The last vertex (density 0 on its own) completes the order.
    vertex, _ = heap_pop()
    order.append(vertex)

    # Reconstruct the best prefix: all vertices except the first
    # (n - best_size) removed.
    n = len(order)
    removed_count = n - best_size
    subset = set(order[removed_count:])
    return PeelResult(
        subset=subset,
        density=best_density,
        order=order,
        densities=densities,
    )


def _peel_sparse(
    graph: Graph, adjacency: Optional["CSRAdjacency"] = None
) -> PeelResult:
    """Vectorised peel: CSR degree array + lazy heap.

    Degrees are initialised as one row-sum and updated with O(deg)
    NumPy row slices; the priority queue is a lazy ``heapq`` (an entry
    is stale unless its key equals the vertex's current degree), which
    handles both key directions of signed weights without an
    addressable structure.  *adjacency* supplies the graph's prebuilt
    CSR (validated cheaply against vertex/edge counts) so shared
    preparations skip the freeze.
    """
    import numpy as np

    from repro.graph.sparse import CSRAdjacency

    adj = CSRAdjacency.for_graph(graph, adjacency)
    n = adj.n
    degrees = adj.degrees().copy()
    alive = np.ones(n, dtype=bool)
    heap = [(float(degrees[i]), i) for i in range(n)]
    heapq.heapify(heap)

    def pop_min() -> int:
        while True:
            key, vertex = heapq.heappop(heap)
            if alive[vertex] and key == degrees[vertex]:
                return vertex

    total_degree = float(degrees.sum())
    size = n
    order_idx: List[int] = []
    densities: List[float] = []
    best_density = total_degree / size
    best_size = size
    densities.append(best_density)

    while size > 1:
        vertex = pop_min()
        alive[vertex] = False
        order_idx.append(vertex)
        neighbors, weights = adj.row(vertex)
        live = alive[neighbors]
        touched = neighbors[live]
        removed = weights[live]
        degrees[touched] -= removed
        for neighbor in touched:
            heapq.heappush(heap, (float(degrees[neighbor]), int(neighbor)))
        # Each removed undirected edge contributes twice to the total
        # degree: once at each endpoint.
        total_degree -= 2.0 * float(removed.sum())
        size -= 1
        density = total_degree / size
        densities.append(density)
        if density > best_density:
            best_density = density
            best_size = size

    # The last vertex (density 0 on its own) completes the order.
    order_idx.append(pop_min())

    order = [adj.vertices[i] for i in order_idx]
    removed_count = n - best_size
    subset = set(order[removed_count:])
    return PeelResult(
        subset=subset,
        density=best_density,
        order=order,
        densities=densities,
    )


def peel_density_profile(graph: Graph) -> Sequence[float]:
    """Just the density-after-k-removals profile of a greedy peel."""
    return greedy_peel(graph).densities
