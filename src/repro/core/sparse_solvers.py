"""Vectorised (CSR) backend for the DCSGA solver stack.

Every kernel here is a NumPy re-expression of a reference implementation
elsewhere in :mod:`repro.core` — same algorithm, same convergence rules,
same tie-break conventions where determinism matters — operating on a
shared :class:`~repro.graph.sparse.CSRAdjacency` instead of dict loops.

SEACD and Refinement are **support-local**: the iterate is a sorted
array of row indices plus their values, and each round reads only the
CSR rows of the vertices it touches, so one initialisation costs what
the supports it explores cost, whatever n is (the paper's Sec. VI-D
cost story).  Nothing per initialisation allocates or scans n entries.

* :func:`coordinate_descent_csr` — the 2-coordinate shrink stage on the
  induced block ``D[S][:, S]`` (dense up to
  :data:`DENSE_SUPPORT_LIMIT`, local CSR past it): masked argmax/argmin
  pair selection and one fused row-axpy per move.  The pair subproblem
  reuses the analytic solver of :mod:`repro.core.coordinate_descent`,
  so both backends take *bitwise identical* moves given identical
  selections.
* :class:`_Rows` — one round's state: the CSR rows of a vertex set ``U``
  gathered by :meth:`CSRAdjacency.gather_rows`, with the induced block
  built from them.  One gather per round serves the frontier gradient,
  ``omega`` and the next shrink's block.
* :func:`_expand` — the SEA expansion.  ``Dx`` vanishes outside
  ``S ∪ N(S)``, so the frontier gradient is summed from the rows of
  ``S`` in ascending row order (each entry has a full ``csr_matvec``'s
  bits); ``omega`` comes from the rows of ``Z``.
* :func:`seacd_csr` / :func:`refine_csr` — Algorithms 3 and 4 over the
  two stages above; :func:`csr_vertex_solver` runs both from one vertex
  over a CSR matrix built **once** and shared by every initialisation.
  :func:`repro.core.newsea.new_sea` walks the smart-initialisation plan
  with it, and :func:`repro.core.newsea.solve_all_initializations` runs
  it from every vertex.
* :data:`SPARSE_KERNELS` — the three hot loops (coordinate descent,
  peeling, replicator dynamics) as the kernel set of the ``sparse``
  backend; :class:`repro.core.native_kernels.KernelSet` is its compiled
  drop-in.

Parity: the backends agree on supports and agree on objectives up to
floating-point summation order (dict-order sums vs. vectorised dot
products), which the cross-backend test suite pins down.  Objectives
are the local ``x_S^T D[S][:, S] x_S`` of the final support.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.affinity.replicator import _replicator_sparse
from repro.core.coordinate_descent import _best_pair_move
from repro.core.expansion import PRUNE_EPS
from repro.core.seacd import SEACDResult, SEACDStats
from repro.exceptions import VertexNotFound
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
#: reuses every orchestration loop in this module unchanged).  It takes
#: the support's values and the block :meth:`_Rows.block` built for them.
CoordinateDescentFn = Callable[..., Tuple[np.ndarray, float, int, bool]]


def coordinate_descent_csr(
    xm: np.ndarray,
    block,
    tol: float,
    max_iterations: int = 100_000,
) -> Tuple[np.ndarray, float, int, bool]:
    """Drive the iterate *xm* to a local KKT point of ``xm^T block xm``.

    *xm* holds the iterate's values on a support ``S``; it is mutated in
    place and returned as ``(xm, objective, iterations, converged)``.
    *block* is the induced block ``D[S][:, S]`` as :meth:`_Rows.block`
    builds it — a dense array up to :data:`DENSE_SUPPORT_LIMIT` members,
    a local CSR matrix past it; it is not read for a single vertex.

    Each pair move is a handful of O(|S|) array operations: masked
    argmax/argmin selection, a scalar ``D_S[i, j]`` lookup, and one
    fused row-axpy on the local gradient (O(deg) CSR row updates on the
    local CSR block).
    """
    if xm.size == 1:
        # Singleton support: no self loop, zero gradient — trivially a
        # local KKT point (the reference backend finds no movable pair).
        return xm, 0.0, 0, True

    dense = isinstance(block, np.ndarray)
    dxm = block @ xm

    iterations = 0
    converged = False
    while iterations < max_iterations:
        # With |S| > 1 and sum(x) == 1 a raisable (< 1) and a lowerable
        # (> 0) coordinate always exist; only the masks can be skipped.
        if np.maximum.reduce(xm) < 1.0:
            i = int(dxm.argmax())
        else:
            i = int(np.where(xm < 1.0, dxm, -np.inf).argmax())
        j = int(np.where(xm > 0.0, dxm, np.inf).argmin())
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
            start, end = block.indptr[i], block.indptr[i + 1]
            row_indices = block.indices[start:end]
            pos = np.searchsorted(row_indices, j)
            d_ij = (
                float(block.data[start + pos])
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
            start, end = block.indptr[i], block.indptr[i + 1]
            dxm[block.indices[start:end]] += block.data[start:end] * delta_i
            if delta_j != 0.0:
                start, end = block.indptr[j], block.indptr[j + 1]
                dxm[block.indices[start:end]] += block.data[start:end] * delta_j
        iterations += 1

    return xm, float(xm @ dxm), iterations, converged


# ----------------------------------------------------------------------
# the support-local state of one round
# ----------------------------------------------------------------------
class _Rows:
    """The CSR rows of a vertex set ``U`` (ascending row indices).

    The iterate lives beside it as ``xu``: its values on ``U`` plus one
    trailing 0 slot, which ``xu[local]`` reads for columns outside ``U``.
    The support ``S`` is the positive part of ``xu``, so ``S ⊆ U``.
    """

    __slots__ = ("rows", "lptr", "owner", "cols", "vals", "local", "_block")

    def __init__(self, adj: CSRAdjacency, rows: np.ndarray) -> None:
        self.rows = rows
        self.lptr, self.owner, self.cols, self.vals, self.local = (
            adj.gather_rows(rows)
        )
        self._block = None

    def block(self, sel: Optional[np.ndarray] = None):
        """``D[S][:, S]`` for ``S = rows[sel]`` (all of ``U`` when *sel*
        is None, memoised): dense up to :data:`DENSE_SUPPORT_LIMIT`
        vertices, local CSR past it."""
        if sel is None:
            if self._block is not None:
                return self._block
            size = int(self.rows.size)
            owner, local = self.owner, self.local
            inside = local >= 0
        else:
            size = int(sel.size)
            relabel = np.full(self.rows.size + 1, -1, dtype=np.int64)
            relabel[sel] = np.arange(size)
            owner, local = relabel[self.owner], relabel[self.local]
            inside = (owner >= 0) & (local >= 0)
        owner, local, vals = owner[inside], local[inside], self.vals[inside]
        if size <= DENSE_SUPPORT_LIMIT:
            block = np.zeros((size, size), dtype=np.float64)
            block[owner, local] = vals
        else:
            from scipy.sparse import csr_matrix

            indptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=size), out=indptr[1:])
            block = csr_matrix((vals, local, indptr), shape=(size, size))
        if sel is None:
            self._block = block
        return block


def _row_sums(rows: _Rows, xu: np.ndarray) -> np.ndarray:
    """``(Dx)`` on every row of ``U`` for *xu* on ``U``: each row summed
    in ascending column order from 0 — a ``csr_matvec``'s bits."""
    return np.bincount(
        rows.owner, weights=rows.vals * xu[rows.local], minlength=rows.rows.size
    )


def _support(
    rows: _Rows, xu: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray, object]:
    """``(sel, xm, block)`` of the iterate's support.

    *sel* is None when the support is all of ``U``; *xm* is then a view
    of *xu*, else a copy.  *block* is None for a single vertex.
    """
    size = rows.rows.size
    positive = xu[:size] > 0.0
    if np.count_nonzero(positive) == size:
        sel, xm = None, xu[:size]
    else:
        sel = np.flatnonzero(positive)
        xm = xu[sel]
    return sel, xm, rows.block(sel) if xm.size > 1 else None


def _value(xm: np.ndarray, block) -> float:
    """``f(x) = x_S^T D[S][:, S] x_S`` from the support's values and
    block (as :func:`_support` returns them)."""
    return 0.0 if block is None else float(xm @ (block @ xm))


def _shrink(
    xu: np.ndarray,
    support: Tuple[Optional[np.ndarray], np.ndarray, object],
    tol_scale: float,
    max_cd_iterations: int,
    cd: CoordinateDescentFn,
) -> Tuple[float, int]:
    """Coordinate descent on the *support* of *xu* (updated in place);
    returns ``(objective, iterations)``."""
    sel, xm, block = support
    xm, objective, iterations, _ = cd(
        xm, block, tol=tol_scale / xm.size, max_iterations=max_cd_iterations
    )
    if sel is not None:
        xu[sel] = xm
    return objective, iterations


# ----------------------------------------------------------------------
# expansion stage (Section V-B / Appendix A)
# ----------------------------------------------------------------------
def _expand(
    adj: CSRAdjacency,
    rows: _Rows,
    xu: np.ndarray,
    objective: float,
    strict_tol: float = 1e-12,
) -> Optional[Tuple[_Rows, np.ndarray, int]]:
    """One SEA expansion from the KKT point *xu* on *rows*.

    Uses the unconditional-ascent ``lambda_bar = f(x)`` rule (the SEACD
    choice; see :func:`repro.core.expansion.expansion_step`).  Returns
    ``(new_rows, new_xu, z_size)``, or None when nothing qualifies for
    ``Z``.
    """
    lambda_bar = objective
    threshold = lambda_bar + strict_tol * max(1.0, abs(lambda_bar))

    # The gradient off the support: the terms of each frontier column
    # come from the rows of S in ascending row order, and bincount adds
    # them in that order from 0 — a csr_matvec row sum, bit for bit.
    owner_x = xu[rows.owner]
    frontier = (owner_x > 0.0) & (xu[rows.local] <= 0.0)
    cols = rows.cols[frontier]
    terms = rows.vals[frontier] * owner_x[frontier]
    order = cols.argsort(kind="stable")
    cols = cols[order]
    first = np.empty(cols.size, dtype=bool)
    first[:1] = True
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    gradient = np.bincount(first.cumsum() - 1, weights=terms[order])
    qualifies = gradient > threshold
    z = cols[first][qualifies]
    if z.size == 0:
        return None

    gamma = gradient[qualifies] - lambda_bar
    s_total = float(gamma.sum())
    zeta = float(gamma @ gamma)

    # One gather of U' = S ∪ Z serves omega (the rows of Z), the next
    # shrink's block and the next frontier.
    size = rows.rows.size
    positive = xu[:size] > 0.0
    support = rows.rows[positive]
    union = np.concatenate((support, z))
    by_row = union.argsort()
    new_rows = _Rows(adj, union[by_row])
    place = np.empty_like(by_row)
    place[by_row] = np.arange(by_row.size)
    if z.size == 1:
        # A single candidate: the zero diagonal makes omega exactly 0.
        omega = 0.0
    else:
        # omega = gamma^T D[Z][:, Z] gamma: the rows of Z summed as a
        # csr_matvec would, then one dot.
        scattered = np.zeros(by_row.size + 1)
        scattered[place[support.size:]] = gamma
        omega = float(scattered[:-1] @ _row_sums(new_rows, scattered))

    a = lambda_bar * s_total * s_total + 2.0 * s_total * zeta - omega
    if a <= 0.0:
        tau = 1.0 / s_total
    else:
        tau = min(1.0 / s_total, zeta / a)

    shrink_factor = 1.0 - tau * s_total
    if shrink_factor <= PRUNE_EPS:
        shrink_factor = 0.0  # the old support is pruned whole
    values = np.concatenate((xu[:size][positive] * shrink_factor, tau * gamma))
    values[values <= PRUNE_EPS] = 0.0
    # Renormalise away accumulated rounding (the step preserves the sum
    # analytically: (1 - tau s) + tau s = 1).
    total = float(values.sum())
    if total > 0 and abs(total - 1.0) > 1e-12:
        values /= total
    new_xu = np.zeros(by_row.size + 1)
    new_xu[place] = values
    return new_rows, new_xu, int(z.size)


# ----------------------------------------------------------------------
# Algorithm 3 — SEACD
# ----------------------------------------------------------------------
def _start(adj: CSRAdjacency, x0: Dict[Vertex, float]) -> Tuple[np.ndarray, np.ndarray]:
    """The ascending rows of the positive part of *x0* and ``xu`` on them."""
    entries = []
    for vertex, weight in x0.items():
        if weight > 0.0:
            position = adj.index.get(vertex)
            if position is None:
                raise VertexNotFound(vertex)
            entries.append((position, float(weight)))
    entries.sort()
    rows = np.array([position for position, _ in entries], dtype=np.int64)
    return rows, np.array([weight for _, weight in entries] + [0.0])


def _embedding(adj: CSRAdjacency, rows: _Rows, xu: np.ndarray) -> Dict[Vertex, float]:
    """``{vertex: weight > 0}`` of the iterate, in ascending row order."""
    keep = np.flatnonzero(xu[: rows.rows.size] > 0.0)
    vertices = adj.vertices
    return {
        vertices[i]: weight
        for i, weight in zip(rows.rows[keep].tolist(), xu[keep].tolist())
    }


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
    rows, xu = _start(adj, x0)
    if not rows.size:
        raise ValueError("initial embedding has empty support")
    gathered, xu, objective, converged, stats = _seacd_local(
        adj, _Rows(adj, rows), xu, tol_scale, max_expansions, max_cd_iterations, cd
    )
    return SEACDResult(
        x=_embedding(adj, gathered, xu),
        objective=objective,
        converged=converged,
        stats=stats,
    )


def _seacd_local(
    adj: CSRAdjacency,
    rows: _Rows,
    xu: np.ndarray,
    tol_scale: float,
    max_expansions: int,
    max_cd_iterations: int,
    cd: CoordinateDescentFn,
) -> Tuple[_Rows, np.ndarray, float, bool, SEACDStats]:
    """Shrink ⇄ expand from *xu* on *rows*; returns
    ``(rows, xu, objective, converged, stats)``."""
    stats = SEACDStats()
    objective = 0.0
    while True:
        support = _support(rows, xu)
        if stats.shrink_calls:
            # An expansion led here; with lambda_bar = f(x) its step is
            # an ascent direction, so a drop counts as an error.
            expanded = _value(support[1], support[2])
            if expanded < objective - 1e-12 * max(1.0, abs(objective)):
                stats.expansion_errors += 1
            objective = expanded
            stats.expansions += 1
        if stats.expansions >= max_expansions:
            return rows, xu, objective, False, stats
        objective, iterations = _shrink(
            xu, support, tol_scale, max_cd_iterations, cd
        )
        stats.shrink_calls += 1
        stats.shrink_iterations += iterations
        stats.objective_trace.append(objective)
        step = _expand(adj, rows, xu, objective)
        if step is None:
            return rows, xu, objective, True, stats
        rows, xu, _ = step


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
    rows, xu = _start(adj, x0)
    if not rows.size:
        raise ValueError("cannot refine an empty embedding")
    gathered = _Rows(adj, rows)
    _, xm, block = _support(gathered, xu)
    initial = _value(xm, block)
    objective, merges = _refine_local(
        gathered, xu, tol_scale, max_cd_iterations, cd
    )
    return _embedding(adj, gathered, xu), objective, merges, initial


def _non_adjacent_pair(
    rows: _Rows, sel: Optional[np.ndarray], block
) -> Optional[Tuple[int, int]]:
    """Positions in ``U`` of a support pair with no edge, or None if the
    support is a clique.

    An edge count on the block settles the clique case; otherwise the
    scan goes lightest-degree first, like the reference backend, marking
    each row's neighbours in a boolean buffer over ``U``.
    """
    if block is None:
        return None
    size = int(rows.rows.size if sel is None else sel.size)
    edges = np.count_nonzero(block) if isinstance(block, np.ndarray) else block.nnz
    if edges == size * (size - 1):
        return None
    support = np.arange(size) if sel is None else sel
    lptr = rows.lptr
    by_degree = support[np.argsort(np.diff(lptr)[support], kind="stable")]
    is_neighbor = np.zeros(rows.rows.size + 1, dtype=bool)
    for position, u in enumerate(by_degree.tolist()):
        rest = by_degree[position + 1 :]
        neighbors = rows.local[lptr[u] : lptr[u + 1]]
        is_neighbor[neighbors] = True
        missing = rest[~is_neighbor[rest]]
        is_neighbor[neighbors] = False
        if missing.size:
            return u, int(missing[0])
    return None


def _refine_local(
    rows: _Rows,
    xu: np.ndarray,
    tol_scale: float,
    max_cd_iterations: int,
    cd: CoordinateDescentFn,
) -> Tuple[float, int]:
    """Merge non-adjacent support pairs of *xu* (updated in place) until
    the support is a clique; returns ``(objective, merges)``."""
    merges = 0
    while True:
        sel, xm, block = _support(rows, xu)
        pair = _non_adjacent_pair(rows, sel, block)
        if pair is None:
            return _value(xm, block), merges
        u, v = pair
        gradient = _row_sums(rows, xu)
        if gradient[u] < gradient[v]:
            u, v = v, u
        xu[u] += xu[v]
        xu[v] = 0.0
        _shrink(xu, _support(rows, xu), tol_scale, max_cd_iterations, cd)
        merges += 1


# ----------------------------------------------------------------------
# the per-vertex solver NewSEA walks its plan with
# ----------------------------------------------------------------------
def csr_vertex_solver(
    gd_plus: Graph,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    adjacency: Optional[CSRAdjacency] = None,
    cd: CoordinateDescentFn = coordinate_descent_csr,
):
    """A ``VertexSolver`` closure over one shared CSR adjacency.

    The CSR backends' ``vertex_solver``, which ``new_sea`` and
    ``solve_all_initializations`` call once per initialisation: the CSR
    matrix is frozen once (or taken from *adjacency*), not once per
    initialisation, and each run — SEACD + Refinement from the
    indicator of one vertex — touches only the rows it explores.
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
        rows, xu, _, _, stats = _seacd_local(
            adj,
            _Rows(adj, np.array([position], dtype=np.int64)),
            np.array([1.0, 0.0]),
            tol_scale,
            max_expansions,
            100_000,
            cd,
        )
        objective, _ = _refine_local(rows, xu, tol_scale, 100_000, cd)
        return _embedding(adj, rows, xu), objective, stats.expansion_errors

    return solve


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
