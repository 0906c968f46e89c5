"""Smart initialisation for NewSEA (Section V-D, Theorem 6).

For every vertex ``u`` of ``GD+``:

* ``w_u`` — an upper bound on the maximum edge weight of ``u``'s ego net
  ``GD+(T_u)`` (``T_u = {u} union N(u)``), computed in ``O(n + m)`` by
  first taking each vertex's max incident weight and then maxing that
  over ``T_u``;
* ``tau_u`` — the core number of ``u`` in ``GD+``, which caps the size of
  any clique containing ``u`` at ``tau_u + 1``;
* ``mu_u = tau_u * w_u / (tau_u + 1)`` — by Theorem 6 an upper bound on
  ``x^T D x`` for any clique-supported embedding containing ``u``.

NewSEA sorts vertices by decreasing ``mu_u`` and stops initialising as
soon as ``mu_u`` drops below the best objective found.  It is a
*heuristic*, not a pruning rule — the solver started at ``u`` may end on
a solution not containing ``u`` — but the paper reports (and our Table
VII bench confirms) that it never hurt solution quality while saving 1-3
orders of magnitude of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.engine.registry import BackendLike, resolve_backend
from repro.graph.cores import core_numbers
from repro.graph.graph import Graph, Vertex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.graph.sparse import CSRAdjacency


@dataclass(frozen=True)
class InitializationPlan:
    """Per-vertex upper bounds and the initialisation order."""

    mu: Dict[Vertex, float]
    order: List[Vertex]


def ego_max_weights(gd_plus: Graph) -> Dict[Vertex, float]:
    """``w_u``: max edge weight touching the closed neighbourhood of u.

    ``w_u = max{ D+(i, j) : i in T_u or j in T_u }`` computed as
    ``max_{v in T_u} (max incident weight of v)`` — every edge of the ego
    net has an endpoint in ``T_u``, so this dominates the ego net's max
    edge weight (it is exactly the bound the paper uses).
    """
    incident_max: Dict[Vertex, float] = {}
    for u in gd_plus.vertices():
        neighbors = gd_plus.neighbors(u)
        incident_max[u] = max(neighbors.values()) if neighbors else 0.0
    bounds: Dict[Vertex, float] = {}
    for u in gd_plus.vertices():
        best = incident_max[u]
        for v in gd_plus.neighbors(u):
            if incident_max[v] > best:
                best = incident_max[v]
        bounds[u] = best
    return bounds


def clique_affinity_upper_bound(tau: int, w: float) -> float:
    """Theorem 6 bound: ``(k-1)/k * w <= tau/(tau+1) * w`` with ``k <= tau+1``."""
    if tau <= 0 or w <= 0:
        return 0.0
    return tau * w / (tau + 1.0)


def smart_initialization_plan(
    gd_plus: Graph,
    backend: BackendLike = "python",
    adjacency: Optional["CSRAdjacency"] = None,
) -> InitializationPlan:
    """Compute ``mu_u`` for every vertex and the descending trial order.

    Ties are broken by weighted degree (denser first) and then by label
    repr for determinism.

    With ``backend="sparse"`` the ``w_u`` bounds, ``mu_u`` values and the
    trial order are all evaluated in one vectorised pass over the CSR
    arrays (``mu`` values are bitwise identical to the python backend:
    only max/division arithmetic is involved, no reordered sums).  Pass a
    prebuilt *adjacency* of *gd_plus* to skip the CSR construction
    (CSR-capable backends only); the plan is memoised on it, so later
    calls with the same adjacency return the same, read-only plan.  The
    ``python`` backend builds a fresh plan on every call.
    """
    solver_backend = resolve_backend(backend)
    solver_backend.check_adjacency(adjacency)
    return solver_backend.initialization_plan(gd_plus, adjacency=adjacency)


def _smart_initialization_plan_python(gd_plus: Graph) -> InitializationPlan:
    """The reference implementation behind the ``python`` backend."""
    weights = ego_max_weights(gd_plus)
    cores = core_numbers(gd_plus)
    mu: Dict[Vertex, float] = {
        u: clique_affinity_upper_bound(cores.get(u, 0), weights[u])
        for u in gd_plus.vertices()
    }
    order = sorted(
        gd_plus.vertices(),
        key=lambda u: (-mu[u], -gd_plus.degree(u), repr(u)),
    )
    return InitializationPlan(mu=mu, order=order)


def _smart_initialization_plan_sparse(
    gd_plus: Graph, adjacency: Optional["CSRAdjacency"]
) -> InitializationPlan:
    """One vectorised pass over the CSR arrays for every ``mu_u``.

    ``w_u`` is two segment-max reductions over the CSR layout (incident
    max per row, then max of that over each closed neighbourhood); the
    core numbers come from the O(n + m) bucket algorithm of
    :mod:`repro.graph.cores` on the dict graph.  The trial order is one
    ``lexsort`` on ``(-mu, -degree, index)`` — the index *is* the repr
    order because :meth:`CSRAdjacency.from_graph` sorts vertices by repr.

    The plan depends on ``GD+`` alone, so it is memoised on the
    adjacency: a shared one (``PreparedGraph.csr_plus()``) builds it
    once, and every later solve on that graph — whatever its
    ``tol_scale``, sparse or native — gets the same object back.  It is
    shared state: callers read it and never mutate it.  The core-number
    pass is the larger part of a build: on a 20k-vertex, 18.6k-edge
    ``GD+`` it took 48-91 ms of a 78-127 ms plan (2 vCPUs, CPython
    3.11), paid once per frozen graph.  A CSR core pass would save part
    of that cold cost but duplicate the bucket scan, so the plan keeps
    the one implementation.
    """
    import numpy as np

    from repro.graph.sparse import CSRAdjacency

    adj = CSRAdjacency.for_graph(gd_plus, adjacency, positive=True)
    if adj._init_plan is not None:
        return adj._init_plan
    n = adj.n
    if n == 0:
        return InitializationPlan(mu={}, order=[])

    row_sizes = adj.unweighted_degrees()
    nonempty = np.flatnonzero(row_sizes > 0)
    incident = np.zeros(n, dtype=np.float64)
    ego = np.zeros(n, dtype=np.float64)
    if nonempty.size:
        # reduceat segments run from each listed row start to the next;
        # consecutive nonempty starts skip over empty rows exactly.
        starts = adj.indptr[nonempty]
        incident[nonempty] = np.maximum.reduceat(adj.data, starts)
        ego[nonempty] = np.maximum(
            incident[nonempty],
            np.maximum.reduceat(incident[adj.indices], starts),
        )

    cores = core_numbers(gd_plus)
    tau = np.fromiter(
        (cores.get(v, 0) for v in adj.vertices), dtype=np.float64, count=n
    )
    mu = np.where((tau > 0) & (ego > 0), tau * ego / (tau + 1.0), 0.0)

    order_idx = np.lexsort((np.arange(n), -adj.degrees(), -mu))
    vertices = adj.vertices
    adj._init_plan = InitializationPlan(
        mu={vertices[i]: float(mu[i]) for i in range(n)},
        order=[vertices[int(i)] for i in order_idx],
    )
    return adj._init_plan
