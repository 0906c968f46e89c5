"""Difference-graph construction (Section III of the paper).

Given ``G1 = (V, E1, A1)`` and ``G2 = (V, E2, A2)`` over the same vertex
set, the difference graph is ``GD = (V, ED, D)`` with ``D = A2 - A1`` and
``ED = {(u, v) | D(u, v) != 0}``.  Both DCS objectives reduce to densest
subgraph mining on ``GD`` (Eqs. 5 and 6).

This module also implements the paper's input transformations:

* ``alpha``-generalisation (Section III-D): ``D = A2 - alpha * A1``
  turns the objective into ``rho_2(S) - alpha * rho_1(S)``.
* The **Discrete setting** (Section VI-B): quantise ``A2 - A1`` to small
  integer levels so a few very heavy edges cannot dominate the DCS.
* **Heavy-edge capping** (Section III-D / Actor Discrete setting): clamp
  weights above a cap.
* **Sign flip** (Emerging <-> Disappearing GD types): mining
  ``G1 - G2`` instead of ``G2 - G1`` is just negating ``D``.
* **Expectation graphs** (Section I): :func:`mean_graph` averages a
  window of snapshots into the ``G1`` a new observation is contrasted
  against.

Two implementations of one pipeline live here:

* **The array pipeline** — :func:`assemble_difference`, which every
  caller that turns a ``(G1, G2)`` pair into a mined ``GD`` reaches
  through :meth:`repro.engine.prepared.PreparedGraph.from_pair`.  It
  reads G1 and G2 once into arrays over their union's repr order and
  applies the difference, Discrete levels, flip and cap elementwise,
  returning ``GD``'s CSR (NumPy only; SciPy is not required).
* **The dict reference** — :func:`difference_graph`,
  :func:`discrete_difference_graph`, :func:`flip`, :func:`cap_weights`
  and :func:`positive_part` on :class:`~repro.graph.graph.Graph`.  The
  dataset builders use them, and the tests hold the array pipeline to
  them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph, Vertex
from repro.graph.sparse import CSRAdjacency, entries_to_csr, graph_entries


def _check_same_vertices(g1: Graph, g2: Graph) -> None:
    """Refuse a pair whose vertex sets differ (the problem statement)."""
    v1, v2 = g1.vertex_set(), g2.vertex_set()
    if v1 != v2:
        raise InputMismatchError(
            "G1 and G2 must share the same vertex set "
            f"({len(v1 - v2)} vertices only in G1, {len(v2 - v1)} only "
            "in G2); pass require_same_vertices=False to take the union"
        )


def difference_graph(
    g1: Graph,
    g2: Graph,
    alpha: float = 1.0,
    require_same_vertices: bool = True,
) -> Graph:
    """Build ``GD`` with affinity ``D = A2 - alpha * A1``.

    With the default ``alpha = 1`` this is the standard difference graph.
    Edges whose difference is exactly zero are absent from ``GD``
    (matching ``ED = {(u, v) | D(u, v) != 0}``).

    When *require_same_vertices* is set (the default, matching the
    problem statement), the two vertex sets must agree exactly; otherwise
    the union is used with missing vertices treated as isolated.
    """
    if require_same_vertices:
        _check_same_vertices(g1, g2)
    result = Graph()
    result.add_vertices(g1.vertex_set() | g2.vertex_set())
    # Start from A2, then subtract alpha * A1; increment_edge drops exact
    # cancellations automatically.
    for u, v, weight in g2.edges():
        result.add_edge(u, v, weight)
    for u, v, weight in g1.edges():
        result.increment_edge(u, v, -alpha * weight)
    return result


def positive_part(gd: Graph) -> Graph:
    """``GD+``: the subgraph of strictly positive difference edges."""
    return gd.positive_part()


def mean_graph(graphs: Iterable[Graph]) -> Graph:
    """Edge-wise mean of several graphs over the union vertex set.

    The natural "expectation" graph of a history window: an edge's weight
    is its average weight across the window (absent = 0).  The naive
    window mean of :func:`repro.stream.engine.snapshot_recompute`.
    """
    items = list(graphs)
    if not items:
        raise ValueError("cannot average zero graphs")
    result = Graph()
    for graph in items:
        result.add_vertices(graph.vertices())
    scale = 1.0 / len(items)
    for graph in items:
        for u, v, weight in graph.edges():
            result.increment_edge(u, v, weight * scale)
    return result


def assemble_difference(
    g1: Graph,
    g2: Graph,
    alpha: float = 1.0,
    flipped: bool = False,
    discrete: bool = False,
    cap: Optional[float] = None,
    require_same_vertices: bool = False,
) -> CSRAdjacency:
    """The full input pipeline: ``(G1, G2)`` -> the mined ``GD``'s CSR.

    Composes the paper's transformations in their canonical order —
    difference (weighted ``alpha``-generalised, or the DBLP Discrete
    quantisation), then the Emerging/Disappearing *flip*, then heavy-edge
    *capping*.  This is the one place the ``repro`` CLI, the batch
    service and the query service agree on what a query's difference
    parameters mean (all of them through
    :meth:`~repro.engine.prepared.PreparedGraph.from_pair`).  *discrete*
    is mutually exclusive with a non-default *alpha* (quantisation fixes
    the scale that ``alpha`` would re-weight).

    Arrays all the way: G1 and G2 are read once over the union's repr
    order (:func:`~repro.graph.sparse.graph_entries`); one stable sort
    puts each G1 entry right after the G2 entry of the same pair, so
    ``np.add.reduceat`` adds ``w2 + (-alpha * w1)`` in the dict path's
    order; exact zeros drop after the difference and after the Discrete
    levels.  The arrays equal
    :meth:`~repro.graph.sparse.CSRAdjacency.from_graph` of the dict
    reference (:func:`difference_graph` or
    :func:`discrete_difference_graph`, then :func:`flip`, then
    :func:`cap_weights`) bit for bit.  A non-finite weight is refused
    with ``ValueError``, as :meth:`Graph.add_edge` refuses it.
    """
    if discrete and alpha != 1.0:
        raise InputMismatchError(
            "discrete quantisation and alpha are mutually exclusive"
        )
    if require_same_vertices:
        _check_same_vertices(g1, g2)
    union = dict.fromkeys(g1.vertices())
    union.update(dict.fromkeys(g2.vertices()))
    vertices = sorted(union, key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    keys2, weights2 = graph_entries(g2, index)
    keys1, weights1 = graph_entries(g1, index)
    keys = np.concatenate((keys2, keys1))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Overflow is refused below, with the dict path's error.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.concatenate((weights2, -alpha * weights1))[order]
        if keys.size:
            first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            keys, weights = keys[first], np.add.reduceat(weights, first)
    _refuse_non_finite(vertices, keys, weights)
    keys, weights = _nonzero(keys, weights)
    if discrete:
        keys, weights = _nonzero(keys, DBLP_DISCRETE.map_array(weights))
    if flipped:
        weights = -weights
    if cap is not None:
        if cap <= 0:
            raise ValueError("cap must be positive")
        weights = np.maximum(-cap, np.minimum(cap, weights))
        _refuse_non_finite(vertices, keys, weights)
    return CSRAdjacency(vertices, *entries_to_csr(len(vertices), keys, weights))


def _nonzero(
    keys: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the exact zeros: ``ED = {(u, v) | D(u, v) != 0}``."""
    kept = weights != 0
    return keys[kept], weights[kept]


def _refuse_non_finite(
    vertices: List[Vertex], keys: np.ndarray, weights: np.ndarray
) -> None:
    """Raise :meth:`Graph.add_edge`'s error for the first non-finite
    weight of an assembled difference."""
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        row, col = divmod(int(keys[bad[0]]), len(vertices))
        raise ValueError(
            f"edge ({vertices[row]!r}, {vertices[col]!r}) has non-finite "
            f"weight {float(weights[bad[0]])!r}"
        )


def flip(gd: Graph) -> Graph:
    """Swap the roles of G1 and G2 (Emerging <-> Disappearing)."""
    return gd.negated()


# ----------------------------------------------------------------------
# Discrete setting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiscreteLevels:
    """A quantisation of difference weights into integer levels.

    ``thresholds`` and ``values`` describe a step function applied to the
    raw difference ``d = A2(u,v) - A1(u,v)``: the weight becomes
    ``values[i]`` for the first ``i`` with ``d >= thresholds[i]``
    (thresholds must be strictly decreasing), and ``fallback`` if no
    threshold matches.  Weights mapped to 0 delete the edge.
    """

    thresholds: Tuple[float, ...]
    values: Tuple[float, ...]
    fallback: float = 0.0

    def __post_init__(self) -> None:
        if len(self.thresholds) != len(self.values):
            raise ValueError("thresholds and values must align")
        if any(
            a <= b
            for a, b in zip(self.thresholds, self.thresholds[1:])
        ):
            raise ValueError("thresholds must be strictly decreasing")

    def __call__(self, difference: float) -> float:
        for threshold, value in zip(self.thresholds, self.values):
            if difference >= threshold:
                return value
        return self.fallback

    def map_array(self, differences: np.ndarray) -> np.ndarray:
        """:meth:`__call__` over a float array, elementwise."""
        levels = np.full(differences.shape, float(self.fallback))
        # Last write wins, so writing in reverse leaves each entry the
        # value of the first threshold it meets.
        for threshold, value in reversed(list(zip(self.thresholds, self.values))):
            levels[differences >= threshold] = value
        return levels


#: The paper's DBLP Discrete setting (Section VI-B):
#: ``>= +5`` more collaborations -> +2; ``[+2, +5)`` -> +1;
#: ``(-4, 0)`` -> -1; ``<= -4`` -> -2; and small gains in ``[0, 2)``
#: (including "no change") carry no edge.
DBLP_DISCRETE = DiscreteLevels(
    thresholds=(5.0, 2.0, 0.0, -4.0 + 1e-12),
    values=(2.0, 1.0, 0.0, -1.0),
    fallback=-2.0,
)


def discrete_difference_graph(
    g1: Graph,
    g2: Graph,
    levels: DiscreteLevels = DBLP_DISCRETE,
    require_same_vertices: bool = True,
) -> Graph:
    """``GD`` under the Discrete setting.

    The raw differences are computed over the union of edges of G1 and
    G2, then passed through *levels*.  Pairs with zero raw difference are
    never edges (they are absent from both ``ED`` and the quantised
    graph), matching the paper: the quantisation only reweights existing
    difference edges.
    """
    raw = difference_graph(
        g1, g2, require_same_vertices=require_same_vertices
    )
    return raw.map_weights(levels)


def cap_weights(gd: Graph, cap: float) -> Graph:
    """Clamp weights into ``[-cap, cap]``.

    Implements the heavy-edge adjustment of Section III-D (used for the
    Actor Discrete setting, where weights above 10 are set to 10):
    without it, a single very heavy edge is likely to *be* the DCS.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    return gd.map_weights(lambda w: max(-cap, min(cap, w)))


def scale_free_quantizer(
    boundaries: Sequence[float],
) -> Callable[[float], float]:
    """Build a symmetric quantiser from positive boundary magnitudes.

    ``boundaries = (b1, b2, ..., bk)`` (increasing) maps a difference
    ``d`` to ``+i`` where ``b_{i-1} <= |d| < b_i`` with the sign of ``d``
    (differences below ``b1`` in magnitude are dropped).  A generic
    alternative to hand-written :class:`DiscreteLevels`.
    """
    bounds = tuple(boundaries)
    if not bounds or any(b <= 0 for b in bounds):
        raise ValueError("boundaries must be positive")
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be strictly increasing")

    def quantize(difference: float) -> float:
        magnitude = abs(difference)
        if magnitude < bounds[0]:
            return 0.0
        level = len(bounds)
        for i, bound in enumerate(bounds[1:], start=1):
            if magnitude < bound:
                level = i
                break
        return float(level) if difference > 0 else -float(level)

    return quantize


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DifferenceStats:
    """The Table II row for a difference graph."""

    num_vertices: int
    num_positive_edges: int
    num_negative_edges: int
    max_weight: Optional[float]
    min_weight: Optional[float]
    average_weight: Optional[float]

    @property
    def num_edges(self) -> int:
        return self.num_positive_edges + self.num_negative_edges

    @property
    def positive_density(self) -> float:
        """``m+ / n`` — the x-axis of Fig. 2."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_positive_edges / self.num_vertices


def difference_stats(gd: Graph) -> DifferenceStats:
    """Compute the statistics the paper reports in Table II."""
    positive = 0
    negative = 0
    total = 0.0
    max_weight: Optional[float] = None
    min_weight: Optional[float] = None
    for _, _, weight in gd.edges():
        total += weight
        if weight > 0:
            positive += 1
        else:
            negative += 1
        if max_weight is None or weight > max_weight:
            max_weight = weight
        if min_weight is None or weight < min_weight:
            min_weight = weight
    count = positive + negative
    return DifferenceStats(
        num_vertices=gd.num_vertices,
        num_positive_edges=positive,
        num_negative_edges=negative,
        max_weight=max_weight,
        min_weight=min_weight,
        average_weight=(total / count) if count else None,
    )
