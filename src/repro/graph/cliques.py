"""Clique utilities: positivity checks, Bron-Kerbosch enumeration, max clique.

Cliques matter twice in the paper:

* Theorem 5 shows the optimal DCSGA solution is supported on a **positive
  clique** of ``GD`` (equivalently, a clique of ``GD+``); the Refinement
  step (Algorithm 4) drives any KKT point onto one.
* The NP-hardness reductions (Theorems 1 and 3) go through maximum clique,
  and the exact small-graph oracle in :mod:`repro.core.exact` enumerates
  cliques of ``GD+``.

Bron–Kerbosch is implemented with pivoting and an optional degeneracy
ordering for the outer level, the standard trick for sparse graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set

from repro.graph.cores import degeneracy_ordering
from repro.graph.graph import Graph, Vertex


def is_clique(graph: Graph, subset: Iterable[Vertex]) -> bool:
    """Whether every pair in *subset* is joined by an edge of ``graph``.

    Singletons and the empty set count as cliques (matching the paper:
    a single-vertex solution is trivially a positive clique solution).
    """
    members = list(set(subset))
    for i, u in enumerate(members):
        neighbors = graph.neighbors(u)
        for v in members[i + 1 :]:
            if v not in neighbors:
                return False
    return True


def is_positive_clique(graph: Graph, subset: Iterable[Vertex]) -> bool:
    """Whether ``G(S)`` is a clique whose edges all have positive weight.

    This is the paper's *positive clique* test applied to the (signed)
    difference graph ``GD``.
    """
    members = list(set(subset))
    for i, u in enumerate(members):
        neighbors = graph.neighbors(u)
        for v in members[i + 1 :]:
            if neighbors.get(v, 0.0) <= 0.0:
                return False
    return True


def maximal_cliques(graph: Graph) -> Iterator[FrozenSet[Vertex]]:
    """Enumerate all maximal cliques (Bron-Kerbosch, pivot + degeneracy).

    Yields each maximal clique exactly once as a frozenset.  Isolated
    vertices are yielded as singleton cliques.
    """
    order = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(order)}
    for vertex in order:
        neighbors = set(graph.neighbors(vertex))
        later = {u for u in neighbors if position[u] > position[vertex]}
        earlier = neighbors - later
        yield from _bron_kerbosch_pivot(graph, {vertex}, later, earlier)


def _bron_kerbosch_pivot(
    graph: Graph,
    clique: Set[Vertex],
    candidates: Set[Vertex],
    excluded: Set[Vertex],
) -> Iterator[FrozenSet[Vertex]]:
    if not candidates and not excluded:
        yield frozenset(clique)
        return
    # Pivot on the vertex with the most candidate neighbours to prune.
    pivot_pool = candidates | excluded
    pivot = max(
        pivot_pool,
        key=lambda u: sum(1 for w in graph.neighbors(u) if w in candidates),
    )
    pivot_neighbors = set(graph.neighbors(pivot))
    for vertex in list(candidates - pivot_neighbors):
        neighbors = set(graph.neighbors(vertex))
        clique.add(vertex)
        yield from _bron_kerbosch_pivot(
            graph, clique, candidates & neighbors, excluded & neighbors
        )
        clique.discard(vertex)
        candidates.discard(vertex)
        excluded.add(vertex)


def maximum_clique(graph: Graph) -> Set[Vertex]:
    """A maximum clique (by vertex count); empty set for an empty graph.

    Exponential in the worst case — intended for the exact oracles and
    tests on small graphs, and for moderate sparse graphs via the
    degeneracy-ordered enumeration.
    """
    best: FrozenSet[Vertex] = frozenset()
    for clique in maximal_cliques(graph):
        if len(clique) > len(best):
            best = clique
    return set(best)


def max_clique_number(graph: Graph) -> int:
    """Size of the maximum clique, ``omega(G)`` (0 for an empty graph)."""
    return len(maximum_clique(graph))


def count_cliques_by_size(
    graph: Graph, min_size: int = 1
) -> dict[int, int]:
    """Count maximal cliques grouped by size (for Fig. 3 style censuses).

    Only cliques with at least *min_size* vertices are counted.  Note
    Fig. 3 of the paper counts the distinct cliques *found by the solver*
    (after deduplication and sub-clique removal); that census lives in
    :mod:`repro.analysis.clique_census`.  This function counts maximal
    cliques of the graph itself and is used for dataset sanity checks.
    """
    counts: dict[int, int] = {}
    for clique in maximal_cliques(graph):
        size = len(clique)
        if size >= min_size:
            counts[size] = counts.get(size, 0) + 1
    return counts


def remove_subsumed_cliques(
    cliques: Iterable[Iterable[Vertex]],
) -> List[Set[Vertex]]:
    """Deduplicate cliques and drop those contained in another clique.

    The paper applies exactly this post-processing to the positive cliques
    returned by SEACD+Refinement before reporting Table V and Fig. 3
    ("We removed the duplicate cliques and the cliques that are sub-graphs
    of other cliques found").
    """
    unique: List[Set[Vertex]] = []
    seen: Set[FrozenSet[Vertex]] = set()
    for clique in cliques:
        frozen = frozenset(clique)
        if frozen not in seen:
            seen.add(frozen)
            unique.append(set(frozen))
    unique.sort(key=len, reverse=True)
    kept: List[Set[Vertex]] = []
    # A clique can only sit inside a kept clique that holds each of its
    # vertices, so the kept cliques through any one member are the only
    # candidates, not every kept clique.
    through: Dict[Vertex, List[Set[Vertex]]] = {}
    for clique in unique:
        candidates = through.get(next(iter(clique)), []) if clique else kept
        if not any(clique <= other for other in candidates):
            kept.append(clique)
            for vertex in clique:
                through.setdefault(vertex, []).append(clique)
    return kept
