"""Numba-compiled kernels over raw CSR arrays — the ``native`` backend core.

The sparse backend (:mod:`repro.core.sparse_solvers`) vectorised the
solvers, but its hottest loop — 2-coordinate descent — still takes one
Python-interpreted trip per *pair move* (an argmax, an argmin, a pair
solve, two row axpys: ~6 NumPy calls of a few microseconds each,
tens of thousands of times per NewSEA run).  The kernels here compile
exactly those loops with Numba ``@njit(cache=True)``, operating directly
on the flat ``indptr``/``indices``/``data`` arrays of a frozen
:class:`~repro.graph.sparse.CSRAdjacency`:

* :func:`_cd_dense_kernel` / :func:`_cd_csr_kernel` — the 2-coordinate
  shrink loop (dense induced block under
  :data:`~repro.core.sparse_solvers.DENSE_SUPPORT_LIMIT`, CSR row
  updates above it);
* :func:`_dense_block_kernel` — the induced-block gather (a Python row
  loop in :meth:`CSRAdjacency.dense_block`);
* :func:`_peel_kernel` — Algorithm 1 greedy peeling with a faithful
  replica of CPython's lazy binary heap;
* :func:`_replicator_kernel` — replicator dynamics, matvec included.

**Parity contract.**  Each kernel replays the float operations of its
sparse counterpart *in the same order* — first-occurrence argmax/argmin
scans, the same inlined ``_best_pair_move`` candidate order, two
separate row axpys, sequential per-row matvec accumulation (what
SciPy's C ``csr_matvec`` does) — so the compiled coordinate-descent
trajectory is bitwise identical to ``coordinate_descent_csr`` and the
peel pop order is bitwise identical to ``_peel_sparse``.  The only
tolerated divergence is NumPy's pairwise summation in a handful of
*reductions* (``removed.sum()``, BLAS dots), which can move density
low bits without affecting selections; the differential test tier pins
all of this down.

**Lazy, gated, and testable without Numba.**  Numba is imported inside
:func:`get_kernels` only; its absence leaves every existing backend
untouched (:func:`numba_available` is how the ``native`` backend gates
itself).  Because the kernels are written as plain loop-nest Python
(no closures, no object mode), ``get_kernels(jit=False)`` returns the
*same* functions uncompiled — the differential suite exercises the
real kernel bodies on interpreters with no Numba installed.

**Warm once per process.**  JIT compilation costs seconds; long-lived
hosts (batch pool workers, ``repro serve``) call :func:`warm_kernels`
from their initializers so no query pays it.  :func:`kernel_build_count`
exposes the build counter the regression tests pin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import BackendUnavailableError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.affinity.replicator import ReplicatorResult
    from repro.graph.graph import Graph
    from repro.graph.sparse import CSRAdjacency
    from repro.peeling.greedy import PeelResult


# ----------------------------------------------------------------------
# availability
# ----------------------------------------------------------------------
_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether Numba imports here (checked lazily, cached)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:  # pragma: no cover - depends on the environment
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except ImportError:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


# ----------------------------------------------------------------------
# kernel bodies (plain Python, njit-compilable as-is)
# ----------------------------------------------------------------------
def _cd_dense_kernel(
    xm: np.ndarray,
    dxm: np.ndarray,
    block: np.ndarray,
    tol: float,
    max_iterations: int,
) -> Tuple[int, bool]:
    """The 2-coordinate-descent loop on a dense induced block.

    Mutates ``xm``/``dxm`` in place; returns ``(iterations, converged)``.
    Every selection and update replays ``coordinate_descent_csr``'s
    dense path operation-for-operation (first-max argmax, first-min
    argmin, the endpoint-first pair-move candidates, two separate row
    axpys), so the iterates are bitwise identical.
    """
    size = xm.shape[0]
    iterations = 0
    converged = False
    while iterations < max_iterations:
        xm_max = xm[0]
        for k in range(1, size):
            if xm[k] > xm_max:
                xm_max = xm[k]
        if xm_max < 1.0:
            i = 0
            best = dxm[0]
            for k in range(1, size):
                if dxm[k] > best:
                    best = dxm[k]
                    i = k
        else:
            i = 0
            best = -np.inf
            for k in range(size):
                value = dxm[k] if xm[k] < 1.0 else -np.inf
                if value > best:
                    best = value
                    i = k
        j = 0
        worst = np.inf
        for k in range(size):
            value = dxm[k] if xm[k] > 0.0 else np.inf
            if value < worst:
                worst = value
                j = k
        dx_i = dxm[i]
        dx_j = dxm[j]
        if 2.0 * (dx_i - dx_j) <= tol:
            converged = True
            break

        xi = xm[i]
        xj = xm[j]
        c_total = xi + xj
        d_ij = block[i, j]
        b_i = dx_i - d_ij * xj
        b_j = dx_j - d_ij * xi
        # _best_pair_move inlined: endpoints first, then the stationary
        # point of the concave quadratic; strict > keeps the first best
        # (== max(candidates, key=g)).
        xi_new = 0.0
        best_score = (
            b_i * 0.0 + b_j * (c_total - 0.0) + d_ij * 0.0 * (c_total - 0.0)
        )
        score = (
            b_i * c_total
            + b_j * (c_total - c_total)
            + d_ij * c_total * (c_total - c_total)
        )
        if score > best_score:
            best_score = score
            xi_new = c_total
        if d_ij > 0.0:
            stationary = (d_ij * c_total + b_i - b_j) / (2.0 * d_ij)
            if 0.0 < stationary < c_total:
                score = (
                    b_i * stationary
                    + b_j * (c_total - stationary)
                    + d_ij * stationary * (c_total - stationary)
                )
                if score > best_score:
                    best_score = score
                    xi_new = stationary
        xj_new = c_total - xi_new

        delta_i = xi_new - xi
        delta_j = xj_new - xj
        if delta_i == 0.0:
            converged = True
            break

        xm[i] = xi_new if xi_new > 0.0 else 0.0
        xm[j] = xj_new if xj_new > 0.0 else 0.0
        for k in range(size):
            dxm[k] = dxm[k] + block[i, k] * delta_i
        if delta_j != 0.0:
            for k in range(size):
                dxm[k] = dxm[k] + block[j, k] * delta_j
        iterations += 1
    return iterations, converged


def _cd_csr_kernel(
    xm: np.ndarray,
    dxm: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    tol: float,
    max_iterations: int,
) -> Tuple[int, bool]:
    """The 2-coordinate-descent loop on a local CSR submatrix.

    The large-support path (> ``DENSE_SUPPORT_LIMIT``): ``d_ij`` by
    binary search in row ``i`` (``np.searchsorted`` replica) and O(deg)
    row updates, matching ``coordinate_descent_csr``'s CSR branch.
    """
    size = xm.shape[0]
    iterations = 0
    converged = False
    while iterations < max_iterations:
        xm_max = xm[0]
        for k in range(1, size):
            if xm[k] > xm_max:
                xm_max = xm[k]
        if xm_max < 1.0:
            i = 0
            best = dxm[0]
            for k in range(1, size):
                if dxm[k] > best:
                    best = dxm[k]
                    i = k
        else:
            i = 0
            best = -np.inf
            for k in range(size):
                value = dxm[k] if xm[k] < 1.0 else -np.inf
                if value > best:
                    best = value
                    i = k
        j = 0
        worst = np.inf
        for k in range(size):
            value = dxm[k] if xm[k] > 0.0 else np.inf
            if value < worst:
                worst = value
                j = k
        dx_i = dxm[i]
        dx_j = dxm[j]
        if 2.0 * (dx_i - dx_j) <= tol:
            converged = True
            break

        xi = xm[i]
        xj = xm[j]
        c_total = xi + xj
        row_start = indptr[i]
        row_end = indptr[i + 1]
        lo = row_start
        hi = row_end
        while lo < hi:
            mid = (lo + hi) // 2
            if indices[mid] < j:
                lo = mid + 1
            else:
                hi = mid
        if lo < row_end and indices[lo] == j:
            d_ij = data[lo]
        else:
            d_ij = 0.0
        b_i = dx_i - d_ij * xj
        b_j = dx_j - d_ij * xi
        xi_new = 0.0
        best_score = (
            b_i * 0.0 + b_j * (c_total - 0.0) + d_ij * 0.0 * (c_total - 0.0)
        )
        score = (
            b_i * c_total
            + b_j * (c_total - c_total)
            + d_ij * c_total * (c_total - c_total)
        )
        if score > best_score:
            best_score = score
            xi_new = c_total
        if d_ij > 0.0:
            stationary = (d_ij * c_total + b_i - b_j) / (2.0 * d_ij)
            if 0.0 < stationary < c_total:
                score = (
                    b_i * stationary
                    + b_j * (c_total - stationary)
                    + d_ij * stationary * (c_total - stationary)
                )
                if score > best_score:
                    best_score = score
                    xi_new = stationary
        xj_new = c_total - xi_new

        delta_i = xi_new - xi
        delta_j = xj_new - xj
        if delta_i == 0.0:
            converged = True
            break

        xm[i] = xi_new if xi_new > 0.0 else 0.0
        xm[j] = xj_new if xj_new > 0.0 else 0.0
        for idx in range(indptr[i], indptr[i + 1]):
            dxm[indices[idx]] += data[idx] * delta_i
        if delta_j != 0.0:
            for idx in range(indptr[j], indptr[j + 1]):
                dxm[indices[idx]] += data[idx] * delta_j
        iterations += 1
    return iterations, converged


def _dense_block_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rows: np.ndarray,
    local_of: np.ndarray,
    block: np.ndarray,
) -> None:
    """Gather the induced block ``D[rows][:, rows]`` into *block*.

    *local_of* maps global vertex -> local column (−1 outside); pure
    scatter, so the values match :meth:`CSRAdjacency.dense_block`
    bit-for-bit.
    """
    for local_row in range(rows.shape[0]):
        global_row = rows[local_row]
        for idx in range(indptr[global_row], indptr[global_row + 1]):
            local_col = local_of[indices[idx]]
            if local_col >= 0:
                block[local_row, local_col] = data[idx]


def _peel_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    degrees: np.ndarray,
    total_degree: float,
    order_out: np.ndarray,
    densities_out: np.ndarray,
) -> int:
    """Algorithm 1 greedy peel over raw CSR arrays.

    A faithful replica of ``_peel_sparse``: the priority queue is a
    lazy binary heap whose sift operations copy CPython's ``heapq``
    exactly (inlined — Numba caching forbids closures), entries compare
    as ``(key, vertex)`` tuples, and a popped entry is stale unless its
    key equals the vertex's current degree.  Writes the removal order
    and the density profile; returns 0 (outputs carry the result).
    """
    n = degrees.shape[0]
    capacity = n + indices.shape[0] + 1
    heap_keys = np.empty(capacity, dtype=np.float64)
    heap_verts = np.empty(capacity, dtype=np.int64)
    alive = np.ones(n, dtype=np.bool_)
    for i in range(n):
        heap_keys[i] = degrees[i]
        heap_verts[i] = i
    heap_size = n

    # heapq.heapify: _siftup(x, i) for i in reversed(range(n // 2)).
    for start in range(n // 2 - 1, -1, -1):
        pos = start
        new_key = heap_keys[pos]
        new_vert = heap_verts[pos]
        child = 2 * pos + 1
        while child < heap_size:
            right = child + 1
            if right < heap_size:
                if not (
                    heap_keys[child] < heap_keys[right]
                    or (
                        heap_keys[child] == heap_keys[right]
                        and heap_verts[child] < heap_verts[right]
                    )
                ):
                    child = right
            heap_keys[pos] = heap_keys[child]
            heap_verts[pos] = heap_verts[child]
            pos = child
            child = 2 * pos + 1
        heap_keys[pos] = new_key
        heap_verts[pos] = new_vert
        while pos > start:
            parent = (pos - 1) >> 1
            if new_key < heap_keys[parent] or (
                new_key == heap_keys[parent]
                and new_vert < heap_verts[parent]
            ):
                heap_keys[pos] = heap_keys[parent]
                heap_verts[pos] = heap_verts[parent]
                pos = parent
            else:
                break
        heap_keys[pos] = new_key
        heap_verts[pos] = new_vert

    size = n
    out_pos = 0
    densities_out[0] = total_degree / size
    dens_pos = 1
    while size > 0:
        # pop_min: heappop replica + lazy staleness check.
        vertex = -1
        while True:
            heap_size -= 1
            last_key = heap_keys[heap_size]
            last_vert = heap_verts[heap_size]
            if heap_size > 0:
                key = heap_keys[0]
                vert = heap_verts[0]
                heap_keys[0] = last_key
                heap_verts[0] = last_vert
                pos = 0
                child = 1
                while child < heap_size:
                    right = child + 1
                    if right < heap_size:
                        if not (
                            heap_keys[child] < heap_keys[right]
                            or (
                                heap_keys[child] == heap_keys[right]
                                and heap_verts[child] < heap_verts[right]
                            )
                        ):
                            child = right
                    heap_keys[pos] = heap_keys[child]
                    heap_verts[pos] = heap_verts[child]
                    pos = child
                    child = 2 * pos + 1
                heap_keys[pos] = last_key
                heap_verts[pos] = last_vert
                while pos > 0:
                    parent = (pos - 1) >> 1
                    if last_key < heap_keys[parent] or (
                        last_key == heap_keys[parent]
                        and last_vert < heap_verts[parent]
                    ):
                        heap_keys[pos] = heap_keys[parent]
                        heap_verts[pos] = heap_verts[parent]
                        pos = parent
                    else:
                        break
                heap_keys[pos] = last_key
                heap_verts[pos] = last_vert
            else:
                key = last_key
                vert = last_vert
            if alive[vert] and key == degrees[vert]:
                vertex = vert
                break
        if size == 1:
            # The last vertex (density 0 on its own) completes the order.
            order_out[out_pos] = vertex
            break
        alive[vertex] = False
        order_out[out_pos] = vertex
        out_pos += 1
        removed = 0.0
        for idx in range(indptr[vertex], indptr[vertex + 1]):
            neighbor = indices[idx]
            if alive[neighbor]:
                weight = data[idx]
                degrees[neighbor] -= weight
                removed += weight
                # heappush replica: append then _siftdown(0, pos).
                pos = heap_size
                push_key = degrees[neighbor]
                heap_size += 1
                while pos > 0:
                    parent = (pos - 1) >> 1
                    if push_key < heap_keys[parent] or (
                        push_key == heap_keys[parent]
                        and neighbor < heap_verts[parent]
                    ):
                        heap_keys[pos] = heap_keys[parent]
                        heap_verts[pos] = heap_verts[parent]
                        pos = parent
                    else:
                        break
                heap_keys[pos] = push_key
                heap_verts[pos] = neighbor
        # Each removed undirected edge contributes twice to the total
        # degree: once at each endpoint.
        total_degree -= 2.0 * removed
        size -= 1
        densities_out[dens_pos] = total_degree / size
        dens_pos += 1
    return 0


def _replicator_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    gradient_rule: bool,
    tol: float,
    max_iterations: int,
    prune_eps: float,
) -> Tuple[int, bool, float, int]:
    """Replicator dynamics (Eq. 12), matvec and all, over CSR arrays.

    Mirrors ``_replicator_sparse`` — same convergence rules, pruning
    threshold and renormalisation guard, with sequential per-row matvec
    accumulation (SciPy's own C order).  Mutates *x*; returns
    ``(iterations, converged, objective, status)`` where status 1 means
    a negative gradient was seen (the caller raises the ValueError).
    """
    n = x.shape[0]
    dx = np.empty(n, dtype=np.float64)
    new_x = np.empty(n, dtype=np.float64)
    for i in range(n):
        acc = 0.0
        for idx in range(indptr[i], indptr[i + 1]):
            acc += data[idx] * x[indices[idx]]
        dx[i] = acc
    objective = 0.0
    for i in range(n):
        objective += x[i] * dx[i]

    iterations = 0
    converged = False
    while iterations < max_iterations:
        if objective <= 0.0:
            # f == 0: single vertex or edgeless support — trivially KKT.
            converged = True
            break
        grad_max = -np.inf
        grad_min = np.inf
        negative = False
        for i in range(n):
            if x[i] > 0.0:
                value = dx[i]
                if value > grad_max:
                    grad_max = value
                if value < grad_min:
                    grad_min = value
                if value < 0.0:
                    negative = True
        if gradient_rule and 2.0 * (grad_max - grad_min) <= tol:
            converged = True
            break
        if negative:
            return iterations, converged, objective, 1

        any_positive = False
        for i in range(n):
            if x[i] > 0.0:
                value = x[i] * dx[i] / objective
                if value <= prune_eps:
                    value = 0.0
                else:
                    any_positive = True
                new_x[i] = value
            else:
                new_x[i] = 0.0
        if not any_positive:
            # All mass decayed (possible only with zero gradients).
            converged = True
            break
        total = 0.0
        for i in range(n):
            total += new_x[i]
        if abs(total - 1.0) > 1e-15:
            for i in range(n):
                new_x[i] /= total

        for i in range(n):
            acc = 0.0
            for idx in range(indptr[i], indptr[i + 1]):
                acc += data[idx] * new_x[indices[idx]]
            dx[i] = acc
        new_objective = 0.0
        for i in range(n):
            new_objective += new_x[i] * dx[i]
        iterations += 1
        improvement = new_objective - objective
        for i in range(n):
            x[i] = new_x[i]
        objective = new_objective
        if (not gradient_rule) and improvement < tol:
            converged = True
            break

    return iterations, converged, objective, 0


#: name -> uncompiled kernel body; a :class:`KernelSet` binds the
#: compiled (or interpreted) form of each.
_KERNEL_BODIES: Dict[str, Callable[..., Any]] = {
    "cd_dense": _cd_dense_kernel,
    "cd_csr": _cd_csr_kernel,
    "dense_block": _dense_block_kernel,
    "peel": _peel_kernel,
    "replicator": _replicator_kernel,
}


# ----------------------------------------------------------------------
# kernel set: build, cache, warm
# ----------------------------------------------------------------------
class KernelSet:
    """One bound set of kernels (compiled with Numba, or interpreted)
    plus the high-level wrappers the ``native`` backend calls.

    The compiled drop-in for
    :class:`~repro.core.sparse_solvers.SparseKernels`: :meth:`peel`,
    :meth:`replicator` and :meth:`coordinate_descent` (the ``cd=`` seam
    of the sparse orchestration).
    """

    def __init__(self, jit: bool, kernels: Dict[str, Callable[..., Any]]) -> None:
        self.jit = jit
        self.cd_dense = kernels["cd_dense"]
        self.cd_csr = kernels["cd_csr"]
        self.dense_block_kernel = kernels["dense_block"]
        self.peel_kernel = kernels["peel"]
        self.replicator_kernel = kernels["replicator"]
        self.warmed = False

    def __repr__(self) -> str:
        return f"<KernelSet jit={self.jit} warmed={self.warmed}>"

    # -- induced block -------------------------------------------------
    def dense_block(self, adj: "CSRAdjacency", rows: np.ndarray) -> np.ndarray:
        """``D[rows][:, rows]`` dense, via the compiled gather."""
        size = int(rows.size)
        local_of = np.full(adj.n, -1, dtype=np.int64)
        local_of[rows] = np.arange(size)
        block = np.zeros((size, size), dtype=np.float64)
        self.dense_block_kernel(
            adj.indptr, adj.indices, adj.data, rows, local_of, block
        )
        return block

    # -- 2-coordinate descent (the cd= seam) ---------------------------
    def coordinate_descent(
        self,
        adj: "CSRAdjacency",
        x: np.ndarray,
        members: np.ndarray,
        tol: float,
        max_iterations: int = 100_000,
        need_dx: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], float, int, bool]:
        """Drop-in for ``coordinate_descent_csr`` with a compiled loop."""
        from repro.core.sparse_solvers import DENSE_SUPPORT_LIMIT

        size = int(members.size)
        if size == 1:
            # Singleton support: trivially a local KKT point.
            return x, adj.matvec(x) if need_dx else None, 0.0, 0, True

        xm = x[members]
        if size <= DENSE_SUPPORT_LIMIT:
            block = self.dense_block(adj, members)
            dxm = block @ xm
            iterations, converged = self.cd_dense(
                xm, dxm, block, float(tol), max_iterations
            )
        else:
            local = adj.submatrix(members)
            dxm = local @ xm
            iterations, converged = self.cd_csr(
                xm,
                dxm,
                local.indptr,
                local.indices,
                local.data,
                float(tol),
                max_iterations,
            )
        x[members] = xm
        objective = float(xm @ dxm)
        dx = adj.matvec(x) if need_dx else None
        return x, dx, objective, int(iterations), bool(converged)

    # -- greedy peel ---------------------------------------------------
    def peel(
        self, graph: "Graph", adjacency: Optional["CSRAdjacency"] = None
    ) -> "PeelResult":
        """Algorithm 1 through the compiled heap loop."""
        from repro.graph.sparse import CSRAdjacency
        from repro.peeling.greedy import PeelResult

        adj = CSRAdjacency.for_graph(graph, adjacency)
        n = adj.n
        if n == 0:
            # Mirror greedy_peel's guard: an out-of-bounds write would be
            # undefined behaviour in a compiled kernel.
            raise ValueError("cannot peel an empty graph")
        degrees = adj.degrees().copy()
        order_idx = np.empty(n, dtype=np.int64)
        densities = np.empty(n, dtype=np.float64)
        self.peel_kernel(
            adj.indptr,
            adj.indices,
            adj.data,
            degrees,
            float(degrees.sum()),
            order_idx,
            densities,
        )
        # np.argmax keeps the first maximum — same best prefix as the
        # strict-> tracking of the reference loop.
        best_at = int(np.argmax(densities))
        best_size = n - best_at
        order = [adj.vertices[int(i)] for i in order_idx]
        return PeelResult(
            subset=set(order[n - best_size:]),
            density=float(densities[best_at]),
            order=order,
            densities=[float(d) for d in densities],
        )

    # -- replicator dynamics -------------------------------------------
    def replicator(
        self,
        graph: "Graph",
        x0: Dict[Any, float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        """Replicator dynamics through the compiled iteration."""
        from repro.affinity.replicator import PRUNE_EPS, ReplicatorResult
        from repro.graph.sparse import CSRAdjacency

        adj = CSRAdjacency.from_graph(graph)
        x = adj.embedding_vector({u: w for u, w in x0.items() if w > 0.0})
        if not (x > 0.0).any():
            raise ValueError("initial embedding has empty support")
        iterations, converged, objective, status = self.replicator_kernel(
            adj.indptr,
            adj.indices,
            adj.data,
            x,
            rule == "gradient",
            float(tol),
            max_iterations,
            PRUNE_EPS,
        )
        if status != 0:
            raise ValueError(
                "replicator dynamics requires nonnegative weights; "
                "run it on GD+, not GD"
            )
        return ReplicatorResult(
            x=adj.embedding_dict(x),
            objective=float(objective),
            iterations=int(iterations),
            converged=bool(converged),
        )

    # -- warm-up -------------------------------------------------------
    def warm(self) -> None:
        """Exercise every kernel once on a tiny graph.

        With ``jit=True`` this forces Numba to compile each kernel for
        the production signatures (float64 data, SciPy's int32 CSR
        index arrays, int64 members) — seconds of one-time work that
        batch workers and the resident service pay at startup, never on
        a query.  Idempotent per set.
        """
        if self.warmed:
            return
        from repro.graph.graph import Graph
        from repro.graph.sparse import CSRAdjacency

        triangle = Graph.from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        )
        adj = CSRAdjacency.from_graph(triangle)
        members = np.arange(adj.n, dtype=np.int64)
        x = np.full(adj.n, 1.0 / adj.n, dtype=np.float64)
        self.coordinate_descent(adj, x.copy(), members, tol=1e-6)
        local = adj.submatrix(members)
        xm = x.copy()
        self.cd_csr(
            xm, local @ xm, local.indptr, local.indices, local.data, 1e-6, 10
        )
        self.peel(triangle, adjacency=adj)
        self.replicator(
            triangle, {u: 1.0 / adj.n for u in triangle.vertices()},
            max_iterations=2,
        )
        self.warmed = True


_KERNEL_CACHE: Dict[bool, KernelSet] = {}
_BUILDS = 0


def kernel_build_count() -> int:
    """How many :class:`KernelSet` builds this process has paid.

    The batch warm-once regression pins this: after the pool
    initializer warms the backend, serving queries must not raise it.
    """
    return _BUILDS


def get_kernels(jit: Optional[bool] = None) -> KernelSet:
    """The process-wide kernel set (built once per mode, then cached).

    *jit* ``None`` means "compile iff Numba is importable"; ``True``
    demands Numba (raising
    :class:`~repro.exceptions.BackendUnavailableError` without it);
    ``False`` returns the interpreted bodies — the differential test
    mode, and identical code either way.
    """
    global _BUILDS
    if jit is None:
        jit = numba_available()
    cached = _KERNEL_CACHE.get(jit)
    if cached is not None:
        return cached
    if jit:
        if not numba_available():
            raise BackendUnavailableError(
                "the native kernels require Numba, which is not "
                "installed; use get_kernels(jit=False) or the sparse "
                "backend instead"
            )
        import numba

        bound = {
            name: numba.njit(cache=True)(body)
            for name, body in _KERNEL_BODIES.items()
        }
    else:
        bound = dict(_KERNEL_BODIES)
    kernels = KernelSet(jit, bound)
    _KERNEL_CACHE[jit] = kernels
    _BUILDS += 1
    return kernels


def warm_kernels(jit: Optional[bool] = None) -> KernelSet:
    """Build (if needed) and warm the kernel set; returns it.

    The per-process entry point for pool initializers and service
    startup: after this returns, no query pays JIT compilation.
    """
    kernels = get_kernels(jit=jit)
    kernels.warm()
    return kernels
