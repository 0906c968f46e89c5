"""DCSAD: Density Contrast Subgraph w.r.t. Average Degree (Section IV).

``max_S rho_D(S) = W_D(S) / |S|`` on the difference graph.  NP-hard and
``O(n^{1-eps})``-inapproximable (Theorem 1, Corollary 1), but:

* the heaviest positive edge alone is a ``1/(n-1)``-approximation, and
* greedy peeling on ``GD`` and on ``GD+`` often does much better,

which is exactly Algorithm 2 (*DCSGreedy*): take the best of the three
candidates, refine to the densest connected component (Property 1), and
report the data-dependent ratio ``beta = 2 rho_{D+}(S2) / rho_D(S)``
(Theorem 2) certifying how far the answer can be from optimal on *this*
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.engine.registry import resolve_backend
from repro.graph.components import densest_component, is_connected
from repro.graph.graph import Graph, Vertex
from repro.peeling.greedy import Backend, greedy_peel

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.engine.prepared import PreparedGraph


@dataclass(frozen=True)
class DCSADResult:
    """Solution of a DCSGreedy run.

    Attributes
    ----------
    subset:
        The returned vertex set ``S``.
    density:
        ``rho_D(S)`` — the density-contrast value (average degree in
        ``GD``, each edge counted twice per Eq. 1).
    ratio_bound:
        The data-dependent approximation ratio
        ``beta = 2 rho_{D+}(S2) / rho_D(S)``; the optimum is at most
        ``beta * density``.  ``None`` when the difference graph has no
        positive edge (the trivial answer is exactly optimal).
    candidate_densities:
        Density of each candidate considered (``"max_edge"``,
        ``"greedy_gd"``, ``"greedy_gd_plus"``) before the connectivity
        refinement — useful for diagnostics and the GD-only / GD+-only
        baselines of Tables X and XII.
    winner:
        Which candidate was selected.
    connected:
        Whether the *pre-refinement* winner was already connected in
        ``GD``.
    """

    subset: Set[Vertex]
    density: float
    ratio_bound: Optional[float]
    candidate_densities: Dict[str, float] = field(default_factory=dict)
    winner: str = ""
    connected: bool = True


def _density(gd: Graph, subset: Set[Vertex]) -> float:
    if not subset:
        return float("-inf")
    return gd.total_degree(subset) / len(subset)


def dcs_greedy(
    gd: Graph,
    backend: Backend = "heap",
    prepared: Optional["PreparedGraph"] = None,
) -> DCSADResult:
    """Algorithm 2 on a prebuilt difference graph ``GD``.

    Use :func:`dcs_greedy_pair` to start from ``(G1, G2)``.  In the
    degenerate no-positive-edge case, where the paper picks a random
    vertex, the pick is a fixed function of the vertex set.  *backend*
    selects the peeling priority structure: ``"heap"`` /
    ``"segment_tree"`` (pure Python) or ``"sparse"`` (the vectorised CSR
    backend of :mod:`repro.peeling.greedy`), resolved through the engine
    registry.

    *prepared* shares this graph's
    :class:`~repro.engine.prepared.PreparedGraph` context: the ``GD+``
    build (and, on CSR-capable backends, both frozen adjacencies) are
    reused instead of rebuilt — a paired DCSAD+DCSGA workload on one
    difference graph prepares exactly once.  With shared adjacencies the
    heaviest-edge candidate comes from one ``argmax`` over the frozen
    ``GD`` instead of a dict scan; both pick the same edge on ties.
    """
    if gd.num_vertices == 0:
        raise ValueError("difference graph has no vertices")
    if prepared is not None:
        prepared.check_owns(gd)

    shares_csr = (
        prepared is not None
        and resolve_backend(backend).supports_shared_adjacency
    )
    # csr_of() follows whichever graph the caller passed: dcs_greedy is
    # legitimately invoked on prepared.gd (the usual case) or on
    # prepared.gd_plus itself, and each peel must pair with its own
    # frozen adjacency.
    adjacency = prepared.csr_of(gd) if shares_csr else None
    heaviest = (gd if adjacency is None else adjacency).max_weight_edge()
    if heaviest is None or heaviest[2] <= 0:
        # Case 1 of Section IV-B: no positive edge — any single vertex is
        # optimal with density contrast 0.  The paper picks one at
        # random; this pick is seeded with 0, the seed the engine
        # envelope has always used, so every envelope byte stays as it was.
        vertex = random.Random(0).choice(sorted(gd.vertices(), key=repr))
        return DCSADResult(
            subset={vertex},
            density=0.0,
            ratio_bound=None,
            candidate_densities={},
            winner="single_vertex",
            connected=True,
        )

    u, v, _ = heaviest
    candidates: Dict[str, Set[Vertex]] = {"max_edge": {u, v}}

    peel_gd = greedy_peel(gd, backend=backend, adjacency=adjacency)
    candidates["greedy_gd"] = peel_gd.subset

    # When the caller passed GD+ itself, prepared.gd_plus IS gd — the
    # positive part of an all-positive graph — so this stays coherent
    # for both sanctioned pairings.
    gd_plus = prepared.gd_plus if prepared is not None else gd.positive_part()
    peel_plus = greedy_peel(
        gd_plus,
        backend=backend,
        adjacency=prepared.csr_of(gd_plus) if shares_csr else None,
    )
    candidates["greedy_gd_plus"] = peel_plus.subset

    densities = {name: _density(gd, subset) for name, subset in candidates.items()}
    winner = max(densities, key=lambda name: densities[name])
    subset = candidates[winner]
    connected = is_connected(gd, subset)
    if not connected:
        subset = densest_component(gd, subset)

    density = _density(gd, subset)
    # Theorem 2: rho_{D+}(S2) is a 2-approximation of the max density in
    # GD+, which upper-bounds the max density in GD.
    rho_plus_s2 = gd_plus.total_degree(peel_plus.subset) / len(peel_plus.subset)
    ratio_bound = (2.0 * rho_plus_s2 / density) if density > 0 else None

    return DCSADResult(
        subset=set(subset),
        density=density,
        ratio_bound=ratio_bound,
        candidate_densities=densities,
        winner=winner,
        connected=connected,
    )


def dcs_exact_positive(gd: Graph) -> DCSADResult:
    """Exact DCSAD when the difference graph has **no negative edges**.

    Negative weights are what make DCSAD NP-hard (Theorem 1); without
    them the problem is Goldberg's classic polynomial densest subgraph
    [12], solved here by max-flow binary search.  Raises ``ValueError``
    when a negative edge is present — fall back to :func:`dcs_greedy`.

    Useful for the Actor-style use case (a positive collaboration
    network used directly as ``GD``) and as an exactness oracle wherever
    the difference happens to be one-sided.
    """
    from repro.flow.goldberg import densest_subgraph

    if gd.num_vertices == 0:
        raise ValueError("difference graph has no vertices")
    if gd.num_edges == 0:
        vertex = min(gd.vertices(), key=repr)
        return DCSADResult(
            subset={vertex},
            density=0.0,
            ratio_bound=1.0,
            winner="single_vertex",
            connected=True,
        )
    subset, density = densest_subgraph(gd)
    subset = densest_component(gd, subset)
    density = _density(gd, subset)
    return DCSADResult(
        subset=set(subset),
        density=density,
        ratio_bound=1.0,
        candidate_densities={"goldberg": density},
        winner="goldberg",
        connected=True,
    )


def dcs_greedy_pair(
    g1: Graph,
    g2: Graph,
    backend: Backend = "heap",
) -> DCSADResult:
    """Algorithm 2 on the pair ``(G1, G2)``: builds ``GD = G2 - G1`` first."""
    from repro.core.difference import difference_graph

    return dcs_greedy(difference_graph(g1, g2), backend=backend)


def greedy_on_gd_only(gd: Graph, backend: Backend = "heap") -> DCSADResult:
    """The *GD only* baseline of Tables X and XII: Greedy on ``GD`` alone."""
    peel = greedy_peel(gd, backend=backend)
    subset = peel.subset
    return DCSADResult(
        subset=set(subset),
        density=_density(gd, subset),
        ratio_bound=None,
        candidate_densities={"greedy_gd": peel.density},
        winner="greedy_gd",
        connected=is_connected(gd, subset),
    )


def greedy_on_gd_plus_only(gd: Graph, backend: Backend = "heap") -> DCSADResult:
    """The *GD+ only* baseline: Greedy on ``GD+``, evaluated in ``GD``.

    Note the returned ``density`` is measured in ``GD`` (the contrast
    objective), while the peel itself maximised density in ``GD+`` — the
    distinction the paper draws in Table X's "Average Degree" columns.
    """
    gd_plus = gd.positive_part()
    peel = greedy_peel(gd_plus, backend=backend)
    subset = peel.subset
    return DCSADResult(
        subset=set(subset),
        density=_density(gd, subset),
        ratio_bound=None,
        candidate_densities={"greedy_gd_plus": _density(gd, subset)},
        winner="greedy_gd_plus",
        connected=is_connected(gd, subset),
    )
