"""Vectorised (CSR) backend for the DCSGA solver stack.

Every kernel here is a NumPy re-expression of a reference implementation
elsewhere in :mod:`repro.core` — same algorithm, same convergence rules,
same tie-break conventions where determinism matters — operating on a
shared :class:`~repro.graph.sparse.CSRAdjacency` instead of dict loops:

* :func:`coordinate_descent_csr` — the 2-coordinate shrink stage.  The
  gradient cache ``dx = Dx`` is a dense array maintained with O(deg)
  row-slice updates, and the argmax/argmin pair selection is one
  vectorised pass over the support.  The pair subproblem itself reuses
  the analytic solver of :mod:`repro.core.coordinate_descent` so both
  backends take *bitwise identical* moves given identical selections.
* :func:`expansion_step_csr` — the SEA expansion: ``Z``, ``gamma``,
  ``s``/``zeta``/``omega`` and the step are all array expressions; the
  only sparse-matrix work is one induced block ``D[Z][:, Z]``.
* :func:`seacd_csr` / :func:`refine_csr` — Algorithms 3 and 4 looping
  over the two kernels above.
* :func:`new_sea_csr` — Algorithm 5: the smart-initialisation bounds are
  computed in one vectorised pass (see
  :func:`repro.core.initialization.smart_initialization_plan` with
  ``backend="sparse"``), the CSR matrix is built **once** and shared by
  every initialisation.
* :data:`SPARSE_KERNELS` — the three hot loops (coordinate descent,
  peeling, replicator dynamics) as the kernel set of the ``sparse``
  backend; :class:`repro.core.native_kernels.KernelSet` is its compiled
  drop-in.

Parity: the backends agree on supports and agree on objectives up to
floating-point summation order (dict-order sums vs. vectorised dot
products), which the cross-backend test suite pins down.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.affinity.replicator import _replicator_sparse
from repro.core.coordinate_descent import _best_pair_move
from repro.core.expansion import PRUNE_EPS
from repro.core.initialization import InitializationPlan
from repro.core.seacd import SEACDResult, SEACDStats
from repro.exceptions import VertexNotFound
from repro.graph.cliques import is_clique
from repro.graph.graph import Graph, Vertex
from repro.graph.sparse import CSRAdjacency
from repro.peeling.greedy import _peel_sparse


# ----------------------------------------------------------------------
# shrink stage (2-coordinate descent, Section V-B)
# ----------------------------------------------------------------------
#: Supports larger than this fall back from the dense local submatrix to
#: CSR row updates (quadratic memory would start to bite).
DENSE_SUPPORT_LIMIT = 4096

#: The ``cd=`` seam: any drop-in for :func:`coordinate_descent_csr`
#: (each CSR backend passes its kernel set's, so the native backend
#: reuses every orchestration loop in this module unchanged).
CoordinateDescentFn = Callable[
    ..., Tuple[np.ndarray, Optional[np.ndarray], float, int, bool]
]


def coordinate_descent_csr(
    adj: CSRAdjacency,
    x: np.ndarray,
    members: np.ndarray,
    tol: float,
    max_iterations: int = 100_000,
    need_dx: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], float, int, bool]:
    """Drive *x* to a local KKT point on *members* (row indices).

    Mutates *x* in place and returns ``(x, dx, objective, iterations,
    converged)``; ``dx`` is a fresh dense gradient cache ``Dx`` for the
    final iterate, valid for **every** vertex (the expansion stage
    reuses it without another product).  Callers that never look at the
    full-width gradient (the refinement loop) pass ``need_dx=False`` to
    skip that product; ``dx`` is then None.

    Strategy: the iteration is confined to *members*, so the kernel
    gathers ``x`` into a compact local vector and densifies the induced
    block ``D[S][:, S]`` once (|S| is a support — tiny next to n).  Each
    pair move is then a handful of O(|S|) array operations: masked
    argmax/argmin selection, a scalar ``D_S[i, j]`` lookup, and one
    fused row-axpy on the local gradient.  Supports beyond
    :data:`DENSE_SUPPORT_LIMIT` use O(deg) CSR row updates instead.
    """
    size = int(members.size)
    if size == 1:
        # Singleton support: no self loop, zero gradient — trivially a
        # local KKT point (the reference backend finds no movable pair).
        return x, adj.matvec(x) if need_dx else None, 0.0, 0, True

    dense = size <= DENSE_SUPPORT_LIMIT
    xm = x[members]
    if dense:
        block = adj.dense_block(members)
        dxm = block @ xm
    else:
        local = adj.submatrix(members)
        dxm = local @ xm

    iterations = 0
    converged = False
    while iterations < max_iterations:
        # With |S| > 1 and sum(x) == 1 a raisable (< 1) and a lowerable
        # (> 0) coordinate always exist; only the masks can be skipped.
        xm_max = xm.max()
        if xm_max < 1.0:
            i = int(dxm.argmax())
        else:
            i = int(np.argmax(np.where(xm < 1.0, dxm, -np.inf)))
        j = int(np.argmin(np.where(xm > 0.0, dxm, np.inf)))
        dx_i = float(dxm[i])
        dx_j = float(dxm[j])
        if 2.0 * (dx_i - dx_j) <= tol:
            converged = True
            break

        xi = float(xm[i])
        xj = float(xm[j])
        c_total = xi + xj
        if dense:
            d_ij = float(block[i, j])
        else:
            start, end = local.indptr[i], local.indptr[i + 1]
            row_indices = local.indices[start:end]
            pos = np.searchsorted(row_indices, j)
            d_ij = (
                float(local.data[start + pos])
                if pos < len(row_indices) and row_indices[pos] == j
                else 0.0
            )
        b_i = dx_i - d_ij * xj
        b_j = dx_j - d_ij * xi
        xi_new = _best_pair_move(d_ij, c_total, b_i, b_j)
        xj_new = c_total - xi_new

        delta_i = xi_new - xi
        delta_j = xj_new - xj
        if delta_i == 0.0:
            # The analytic optimum is the current point: the gradient gap
            # is below numeric resolution; treat as converged.
            converged = True
            break

        xm[i] = xi_new if xi_new > 0.0 else 0.0
        xm[j] = xj_new if xj_new > 0.0 else 0.0
        if dense:
            dxm += block[i] * delta_i
            if delta_j != 0.0:
                dxm += block[j] * delta_j
        else:
            start, end = local.indptr[i], local.indptr[i + 1]
            dxm[local.indices[start:end]] += local.data[start:end] * delta_i
            if delta_j != 0.0:
                start, end = local.indptr[j], local.indptr[j + 1]
                dxm[local.indices[start:end]] += local.data[start:end] * delta_j
        iterations += 1

    x[members] = xm
    objective = float(xm @ dxm)
    dx = adj.matvec(x) if need_dx else None
    return x, dx, objective, iterations, converged


# ----------------------------------------------------------------------
# expansion stage (Section V-B / Appendix A)
# ----------------------------------------------------------------------
def expansion_step_csr(
    adj: CSRAdjacency,
    x: np.ndarray,
    dx: np.ndarray,
    objective: float,
    strict_tol: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray, float, bool, int]:
    """One SEA expansion from the KKT point *x* with gradient cache *dx*.

    Uses the unconditional-ascent ``lambda_bar = f(x)`` rule (the SEACD
    choice; see :func:`repro.core.expansion.expansion_step`).  Returns
    ``(new_x, new_dx, new_objective, expanded, z_size)``; when nothing
    qualifies for ``Z`` the inputs are returned unchanged.
    """
    lambda_bar = objective
    threshold = lambda_bar + strict_tol * max(1.0, abs(lambda_bar))

    outside = x <= 0.0
    candidates = outside & (dx > threshold)
    if threshold < 0.0:
        # Degenerate signed case: dx == 0 then beats the threshold, but a
        # vertex with no support neighbour is not in the frontier.  Mask
        # non-frontier vertices explicitly (|D| restricted to support).
        frontier = np.zeros(adj.n, dtype=bool)
        for s in np.flatnonzero(x > 0.0):
            neighbors, _ = adj.row(int(s))
            frontier[neighbors] = True
        candidates &= frontier
    z = np.flatnonzero(candidates)
    if z.size == 0:
        return x, dx, objective, False, 0

    gamma = dx[z] - lambda_bar
    s_total = float(gamma.sum())
    zeta = float(gamma @ gamma)
    if z.size == 1:
        # A single candidate: the zero diagonal makes omega exactly 0.
        omega = 0.0
    else:
        # omega = gamma^T D[Z][:, Z] gamma via one full-width product on
        # the scattered gamma (zeros kill every out-of-Z term) — much
        # cheaper than materialising the induced block.
        scattered = np.zeros_like(dx)
        scattered[z] = gamma
        omega = float(scattered @ adj.matvec(scattered))

    a = lambda_bar * s_total * s_total + 2.0 * s_total * zeta - omega
    if a <= 0.0:
        tau = 1.0 / s_total
    else:
        tau = min(1.0 / s_total, zeta / a)

    shrink_factor = 1.0 - tau * s_total
    new_x = np.zeros_like(x)
    if shrink_factor > PRUNE_EPS:
        scaled = x * shrink_factor
        keep = scaled > PRUNE_EPS
        new_x[keep] = scaled[keep]
    grown = tau * gamma
    keep = grown > PRUNE_EPS
    new_x[z[keep]] = grown[keep]

    # Renormalise away accumulated rounding (the step preserves the sum
    # analytically: (1 - tau s) + tau s = 1).
    total = float(new_x.sum())
    if total > 0 and abs(total - 1.0) > 1e-12:
        new_x /= total

    new_dx = adj.matvec(new_x)
    return new_x, new_dx, float(new_x @ new_dx), True, int(z.size)


# ----------------------------------------------------------------------
# Algorithm 3 — SEACD
# ----------------------------------------------------------------------
def seacd_csr(
    graph: Graph,
    x0: Dict[Vertex, float],
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    max_cd_iterations: int = 100_000,
    cd: CoordinateDescentFn = coordinate_descent_csr,
) -> SEACDResult:
    """Algorithm 3 on the CSR backend; mirrors :func:`repro.core.seacd.seacd`.

    *cd* swaps the 2-coordinate-descent kernel (each CSR backend passes
    its kernel set's) — the seam through which every orchestration
    layer here is shared across backends.
    """
    adj = CSRAdjacency.from_graph(graph)
    x = adj.embedding_vector({u: w for u, w in x0.items() if w > 0.0})
    x_vec, objective, converged, stats = _seacd_vec(
        adj, x, tol_scale, max_expansions, max_cd_iterations, cd=cd
    )
    return SEACDResult(
        x=adj.embedding_dict(x_vec),
        objective=objective,
        converged=converged,
        stats=stats,
    )


def _seacd_vec(
    adj: CSRAdjacency,
    x: np.ndarray,
    tol_scale: float,
    max_expansions: int,
    max_cd_iterations: int,
    cd: CoordinateDescentFn = coordinate_descent_csr,
) -> Tuple[np.ndarray, float, bool, SEACDStats]:
    if not (x > 0.0).any():
        raise ValueError("initial embedding has empty support")
    stats = SEACDStats()
    converged = False
    objective = 0.0
    while stats.expansions < max_expansions:
        members = np.flatnonzero(x > 0.0)
        x, dx, objective, iterations, _ = cd(
            adj,
            x,
            members,
            tol=tol_scale / len(members),
            max_iterations=max_cd_iterations,
        )
        stats.shrink_calls += 1
        stats.shrink_iterations += iterations
        stats.objective_trace.append(objective)

        x_new, dx_new, objective_new, expanded, _ = expansion_step_csr(
            adj, x, dx, objective
        )
        if not expanded:
            converged = True
            break
        decrease_tol = 1e-12 * max(1.0, abs(objective))
        if objective_new < objective - decrease_tol:
            stats.expansion_errors += 1
        x, dx, objective = x_new, dx_new, objective_new
        stats.expansions += 1

    return x, objective, converged, stats


# ----------------------------------------------------------------------
# Algorithm 4 — Refinement to a positive clique
# ----------------------------------------------------------------------
def refine_csr(
    graph: Graph,
    x0: Dict[Vertex, float],
    tol_scale: float = 1e-2,
    max_cd_iterations: int = 100_000,
    cd: CoordinateDescentFn = coordinate_descent_csr,
) -> Tuple[Dict[Vertex, float], float, int, float]:
    """Algorithm 4 on the CSR backend; mirrors :func:`repro.core.refinement.refine`.

    Returns ``(x, objective, merges, initial_objective)``.
    """
    adj = CSRAdjacency.from_graph(graph)
    x = adj.embedding_vector({u: w for u, w in x0.items() if w > 0.0})
    if not (x > 0.0).any():
        raise ValueError("cannot refine an empty embedding")
    x, objective, merges, initial = _refine_vec(
        adj, x, tol_scale, max_cd_iterations, cd=cd
    )
    return adj.embedding_dict(x), objective, merges, initial


def _find_non_adjacent_pair_vec(
    adj: CSRAdjacency, support: np.ndarray
) -> Optional[Tuple[int, int]]:
    """A support pair with no edge, or None if the support is a clique.

    Scans lightest-degree vertices first, like the reference backend.
    The adjacency test marks each row in a shared boolean buffer (reset
    after use), which beats set/``isin`` lookups at every support size.
    """
    by_degree = support[np.argsort(adj.unweighted_degrees()[support], kind="stable")]
    is_neighbor = np.zeros(adj.n, dtype=bool)
    for position, u in enumerate(by_degree):
        rest = by_degree[position + 1 :]
        if rest.size == 0:
            break
        neighbors, _ = adj.row(int(u))
        is_neighbor[neighbors] = True
        missing = rest[~is_neighbor[rest]]
        is_neighbor[neighbors] = False
        if missing.size:
            return int(u), int(missing[0])
    return None


def _refine_vec(
    adj: CSRAdjacency,
    x: np.ndarray,
    tol_scale: float,
    max_cd_iterations: int,
    cd: CoordinateDescentFn = coordinate_descent_csr,
) -> Tuple[np.ndarray, float, int, float]:
    initial_objective = adj.objective(x)
    merges = 0
    while True:
        support = np.flatnonzero(x > 0.0)
        pair = _find_non_adjacent_pair_vec(adj, support)
        if pair is None:
            break
        u, v = pair
        if adj.row_dot(u, x) < adj.row_dot(v, x):
            u, v = v, u
        x[u] += x[v]
        x[v] = 0.0
        members = np.flatnonzero(x > 0.0)
        x, _, _, _, _ = cd(
            adj,
            x,
            members,
            tol=tol_scale / len(members),
            max_iterations=max_cd_iterations,
            need_dx=False,
        )
        merges += 1
    return x, adj.objective(x), merges, initial_objective


# ----------------------------------------------------------------------
# Algorithm 5 — NewSEA with batched smart initialisation
# ----------------------------------------------------------------------
def _solve_one_vec(
    adj: CSRAdjacency,
    vertex_index: int,
    tol_scale: float,
    max_expansions: int,
    cd: CoordinateDescentFn = coordinate_descent_csr,
) -> Tuple[np.ndarray, float, int]:
    """SEACD + Refinement from the indicator of one vertex (by index)."""
    x = np.zeros(adj.n, dtype=np.float64)
    x[vertex_index] = 1.0
    x, _, _, stats = _seacd_vec(adj, x, tol_scale, max_expansions, 100_000, cd=cd)
    x, objective, _, _ = _refine_vec(adj, x, tol_scale, 100_000, cd=cd)
    return x, objective, stats.expansion_errors


def csr_vertex_solver(
    gd_plus: Graph,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    adjacency: Optional[CSRAdjacency] = None,
    cd: CoordinateDescentFn = coordinate_descent_csr,
):
    """A ``VertexSolver`` closure over one shared CSR adjacency.

    Drop-in for :func:`repro.core.newsea.solve_all_initializations`'s
    *solver* parameter: the CSR matrix is built once here, not once per
    initialisation.
    """
    adj = CSRAdjacency.for_graph(gd_plus, adjacency, positive=True)

    def solve(
        graph: Graph, vertex: Vertex
    ) -> Tuple[Dict[Vertex, float], float, int]:
        position = adj.index.get(vertex)
        if position is None:
            # The *graph* argument of the VertexSolver protocol is
            # ignored in favour of the frozen adjacency; an unknown
            # vertex is the observable symptom of a mismatched graph.
            raise VertexNotFound(vertex)
        x, objective, errors = _solve_one_vec(
            adj, position, tol_scale, max_expansions, cd=cd
        )
        return adj.embedding_dict(x), objective, errors

    return solve


def new_sea_csr(
    gd_plus: Graph,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    plan: Optional[InitializationPlan] = None,
    adjacency: Optional[CSRAdjacency] = None,
    cd: CoordinateDescentFn = coordinate_descent_csr,
):
    """Algorithm 5 on the CSR backend; mirrors :func:`repro.core.newsea.new_sea`.

    The caller (:func:`repro.core.newsea.new_sea` with
    ``backend="sparse"``) has already rejected an empty graph; signed
    input fails the freeze's positivity check.  Builds the CSR adjacency
    once (or takes the caller's), takes the ``mu_u`` bounds from the
    plan memoised on it (one vectorised pass on first use), then walks
    the descending-bound order with the same early-stop rule as the
    reference backend.  A caller's *plan* is read, never mutated.
    """
    from repro.core.newsea import DCSGAResult
    from repro.core.initialization import smart_initialization_plan

    adj = CSRAdjacency.for_graph(gd_plus, adjacency, positive=True)
    if plan is None:
        plan = smart_initialization_plan(
            gd_plus, backend="sparse", adjacency=adj
        )

    best_x: Optional[np.ndarray] = None
    best_objective = 0.0
    initializations = 0
    errors = 0
    pruned_at: Optional[float] = None
    for vertex in plan.order:
        bound = plan.mu[vertex]
        if bound <= best_objective:
            # Sorted descending: nothing later can beat the incumbent.
            pruned_at = bound
            break
        x, objective, run_errors = _solve_one_vec(
            adj, adj.index[vertex], tol_scale, max_expansions, cd=cd
        )
        errors += run_errors
        initializations += 1
        if objective > best_objective or best_x is None:
            best_x, best_objective = x, objective

    if best_x is not None:
        embedding = adj.embedding_dict(best_x)
    else:
        # Edgeless GD+ (mu == 0 everywhere): a single vertex is optimal.
        vertex = min(gd_plus.vertices(), key=repr)
        embedding, best_objective = {vertex: 1.0}, 0.0

    return DCSGAResult(
        x=embedding,
        objective=best_objective,
        support={u for u, w in embedding.items() if w > 0.0},
        is_positive_clique=is_clique(gd_plus, embedding),
        initializations=initializations,
        expansion_errors=errors,
        pruned_at_bound=pruned_at,
    )


# ----------------------------------------------------------------------
# the kernel set of the sparse backend
# ----------------------------------------------------------------------
class SparseKernels:
    """The interpreted hot loops, bundled as the ``sparse`` backend's
    kernel set: coordinate descent and replicator dynamics in NumPy,
    the greedy peel as a scalar loop over the CSR arrays (rows are too
    short for per-row NumPy calls to pay off).

    :class:`repro.core.native_kernels.KernelSet` has the same three
    methods, compiled; the backend hands :attr:`coordinate_descent` to
    the orchestration above through its ``cd=`` seam.
    """

    coordinate_descent = staticmethod(coordinate_descent_csr)
    peel = staticmethod(_peel_sparse)
    replicator = staticmethod(_replicator_sparse)


SPARSE_KERNELS = SparseKernels()
