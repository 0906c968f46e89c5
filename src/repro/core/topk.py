"""Top-k density contrast subgraphs (the paper's future-work extension).

Section VII: "our methods only mine one DCS with the greatest density
difference, how to mine multiple subgraphs with big density difference is
another interesting direction."  This module provides the two natural
constructions:

* :func:`top_k_dcsga` — for graph affinity, the all-initialisations
  driver already yields many deduplicated positive cliques; rank them.
  ``diversify=True`` additionally enforces disjoint supports greedily
  (best-first), the usual way to avoid near-duplicate answers.
* :func:`top_k_dcsad` — for average degree, iterate DCSGreedy with a
  *removal* strategy between rounds: either delete the found vertices
  (disjoint answers) or delete only the found edges (overlapping answers
  allowed, the found structure itself suppressed).

Both return results in decreasing objective order, ranks numbered from 0
in that order, and stop early when the graph runs out of positive
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Set, Tuple

from repro.core.dcsad import DCSADResult, dcs_greedy
from repro.core.newsea import solve_all_initializations
from repro.engine.registry import BackendLike, PeelBackend
from repro.graph.graph import Graph, Vertex

RemovalStrategy = Literal["vertices", "edges"]


@dataclass(frozen=True)
class RankedDCS:
    """One of the top-k answers with its rank (0 = best)."""

    rank: int
    subset: Set[Vertex]
    objective: float
    embedding: Optional[Dict[Vertex, float]] = None


def top_k_dcsga(
    gd_plus: Graph,
    k: int,
    diversify: bool = True,
    tol_scale: float = 1e-2,
    backend: BackendLike = "python",
    adjacency=None,
) -> List[RankedDCS]:
    """Top-k positive-clique solutions by graph affinity.

    Runs SEACD+Refinement from every vertex (the paper's multi-solution
    configuration behind Table V / Fig. 3) and ranks the deduplicated
    solutions.  With *diversify*, supports are made pairwise disjoint by
    best-first selection, so each answer describes a different group.
    ``backend="sparse"`` runs every initialisation on the vectorised CSR
    solver over one shared adjacency; *adjacency* supplies that
    :class:`~repro.graph.sparse.CSRAdjacency` prebuilt (the batch layer
    shares one per graph fingerprint through
    :class:`~repro.engine.prepared.PreparedGraph`; the registry
    validates it centrally against non-CSR backends).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    result = solve_all_initializations(
        gd_plus, tol_scale=tol_scale, backend=backend, adjacency=adjacency
    )
    ranked: List[RankedDCS] = []
    used: Set[Vertex] = set()
    for support, x, objective in result.solutions:
        if diversify and support & used:
            continue
        ranked.append(
            RankedDCS(
                rank=len(ranked),
                subset=set(support),
                objective=objective,
                embedding=dict(x),
            )
        )
        used |= support
        if len(ranked) == k:
            break
    return ranked


def _remove_found(
    gd: Graph, subset: Set[Vertex], strategy: RemovalStrategy
) -> Tuple[Graph, int]:
    """Strip the found structure; return ``(residual, removed_count)``.

    *removed_count* is the number of vertices or edges actually deleted —
    the iteration's progress measure.  A round that removes nothing can
    never change the next round's answer, so the caller must stop
    instead of looping on (or raising over) a frozen residual.
    """
    stripped = gd.copy()
    if strategy == "vertices":
        removed = 0
        for vertex in subset:
            if stripped.has_vertex(vertex):
                stripped.remove_vertex(vertex)
                removed += 1
        return stripped, removed
    if strategy == "edges":
        removed = 0
        members = list(subset)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if stripped.discard_edge(u, v) is not None:
                    removed += 1
        return stripped, removed
    raise ValueError(f"unknown removal strategy {strategy!r}")


def top_k_dcsad(
    gd: Graph,
    k: int,
    strategy: RemovalStrategy = "vertices",
    min_objective: float = 0.0,
    backend: PeelBackend = "heap",
) -> List[RankedDCS]:
    """Top-k average-degree contrast subgraphs by iterated DCSGreedy.

    After each round the found structure is removed (*strategy*:
    ``"vertices"`` deletes the vertices — disjoint answers; ``"edges"``
    deletes only the induced edges — answers may share vertices).  The
    iteration stops early once the best remaining contrast drops to
    *min_objective* (default: only strictly positive answers).
    *backend* is the peeling backend of each DCSGreedy round
    (``"heap"``, ``"segment_tree"`` or ``"sparse"``).

    Termination is guaranteed for any *k* and *min_objective*: the loop
    stops cleanly (no exception, no repeated answers) as soon as the
    residual graph has no positive edge left, or as soon as a round
    fails to remove anything — with ``strategy="edges"`` an answer can
    re-surface structure whose induced edges are already gone, and such
    a round makes no progress.

    Answers come back by decreasing density (a stable sort, ranks
    renumbered): a later round, run on the residual, can beat an
    earlier one.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if strategy not in ("vertices", "edges"):
        raise ValueError(f"unknown removal strategy {strategy!r}")
    found: List[DCSADResult] = []
    work = gd.copy()
    for _ in range(k):
        if work.num_vertices == 0:
            break
        heaviest = work.max_weight_edge()
        if heaviest is None or heaviest[2] <= 0:
            # The residual has no positive edge: every later round would
            # return the degenerate zero-contrast answer.  Stop cleanly.
            break
        result: DCSADResult = dcs_greedy(work, backend=backend)
        if result.density <= min_objective:
            break
        work, removed = _remove_found(work, result.subset, strategy)
        if removed == 0:
            break
        found.append(result)
    found.sort(key=lambda answer: -answer.density)
    return [
        RankedDCS(rank=rank, subset=set(answer.subset), objective=answer.density)
        for rank, answer in enumerate(found)
    ]


def coverage(results: List[RankedDCS]) -> Set[Vertex]:
    """Union of all returned subsets (diagnostics)."""
    covered: Set[Vertex] = set()
    for item in results:
        covered |= item.subset
    return covered
