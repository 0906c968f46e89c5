"""CSR adjacency — the vectorised compute substrate for the solvers.

The pure-Python :class:`~repro.graph.graph.Graph` (dict-of-dicts) is the
*reference* representation: flexible, hashable vertices, cheap mutation.
The iterative DCSGA solvers, however, spend almost all of their time in
three kernels — ``(Dx)`` products, per-coordinate gradient updates and
degree bookkeeping — that a Compressed-Sparse-Row matrix executes as
NumPy/SciPy vector operations instead of Python dict loops.

:class:`CSRAdjacency` freezes a :class:`Graph` into that form **once**:

* an explicit ``vertices`` list and ``index`` map (vertex <-> row id),
  ordered by ``repr`` by default so every backend agrees on tie-breaks;
* a symmetric ``scipy.sparse`` CSR matrix with a zero diagonal (the
  affinity matrix ``D`` of the paper);
* raw ``indptr``/``indices``/``data`` views for O(deg) row access.

Embeddings cross the boundary through :meth:`embedding_vector` /
:meth:`embedding_dict`, so callers keep speaking ``{vertex: weight}``
while the kernels speak dense ``ndarray``.

SciPy is gated, not required: importing this module without SciPy
succeeds, and only *using* the sparse backend raises
:class:`~repro.exceptions.BackendUnavailableError`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

try:  # pragma: no cover - exercised implicitly on import
    import numpy as np
except ImportError:  # pragma: no cover - container ships NumPy
    np = None  # type: ignore[assignment]

from repro.exceptions import (
    BackendUnavailableError,
    InputMismatchError,
    VertexNotFound,
)
from repro.graph.graph import Edge, Graph, Vertex

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.initialization import InitializationPlan

try:  # pragma: no cover - exercised implicitly on import
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - container ships SciPy
    _scipy_sparse = None


def scipy_available() -> bool:
    """Whether the sparse backend can be used in this environment."""
    return _scipy_sparse is not None


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a :class:`Graph` — the identity of a frozen input.

    Two graphs fingerprint equally iff they have the same vertex set
    (by ``repr``) and the same edge weights (bit-exact, via ``hex()``).
    The batch layer keys its shared-preprocessing DAG and its
    content-addressed result cache on this, so the hash must be stable
    across processes and sessions — it deliberately uses ``repr``
    ordering (the backend tie-break order) and no ``hash()`` (which is
    salted per process for strings).

    Pure hashing over the dict-of-dicts form; SciPy is not required.
    """
    digest = hashlib.sha256()
    for vertex in sorted(map(repr, graph.vertices())):
        digest.update(vertex.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    edges = sorted(
        (min(repr(u), repr(v)), max(repr(u), repr(v)), weight)
        for u, v, weight in graph.edges()
    )
    for u, v, weight in edges:
        digest.update(u.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(v.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(float(weight).hex().encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _require_scipy() -> None:
    if _scipy_sparse is None:  # pragma: no cover - container ships SciPy
        raise BackendUnavailableError(
            "backend='sparse' requires SciPy, which is not installed; "
            "use the pure-Python backend instead"
        )


class CSRAdjacency:
    """A frozen CSR view of a :class:`Graph` with explicit index maps.

    Build once with :meth:`from_graph`, then share across every solver
    stage of a pipeline run — construction is the only O(m) Python loop;
    everything afterwards is vectorised.
    """

    __slots__ = (
        "vertices",
        "index",
        "matrix",
        "indptr",
        "indices",
        "data",
        "_init_plan",
    )

    def __init__(
        self, vertices: List[Vertex], matrix: "_scipy_sparse.csr_matrix"
    ) -> None:
        self.vertices = vertices
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self.matrix = matrix
        self.indptr = matrix.indptr
        self.indices = matrix.indices
        self.data = matrix.data
        #: NewSEA's initialisation plan of this (``GD+``) adjacency, built
        #: on first request by
        #: :func:`repro.core.initialization.smart_initialization_plan`
        self._init_plan: Optional["InitializationPlan"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRAdjacency":
        """Freeze *graph* into CSR form.

        Row indices follow the vertices sorted by ``repr`` (the same
        deterministic order the dense
        :func:`~repro.graph.matrices.affinity_matrix` uses, and the
        tie-break order of the python backend's initialisation plan).
        """
        _require_scipy()
        vertices = sorted(graph.vertices(), key=repr)
        index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v, weight in graph.edges():
            i, j = index[u], index[v]
            rows.append(i)
            cols.append(j)
            vals.append(weight)
            rows.append(j)
            cols.append(i)
            vals.append(weight)
        matrix = _scipy_sparse.csr_matrix(
            (
                np.asarray(vals, dtype=np.float64),
                (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
            ),
            shape=(n, n),
        )
        matrix.sort_indices()
        return cls(vertices, matrix)

    @classmethod
    def for_graph(
        cls,
        graph: Graph,
        shared: Optional["CSRAdjacency"] = None,
        positive: bool = False,
    ) -> "CSRAdjacency":
        """The CSR of *graph*: a caller's *shared* one, or a fresh freeze.

        The shared-CSR plumbing makes it easy to pass the adjacency of
        the *wrong* graph — most treacherously the signed ``GD`` instead
        of its positive part, which has the same vertex set.  Cheap
        checks (vertex count, edge count) catch the realistic mix-ups
        without a full content comparison; a mismatch raises
        :class:`InputMismatchError`.

        With *positive* (the kernels that expect ``GD+``), the returned
        adjacency — shared or freshly frozen — must also be strictly
        positive: one vectorised pass over ``data``, so CSR solvers need
        no dict scan of the graph's edges.  It raises the same error type.
        """
        if shared is None:
            adjacency = cls.from_graph(graph)
        elif (shared.n, shared.num_edges) != (graph.num_vertices, graph.num_edges):
            raise InputMismatchError(
                f"shared adjacency has {shared.n} vertices and "
                f"{shared.num_edges} edges but the graph has "
                f"{graph.num_vertices} and {graph.num_edges}; it was built "
                "from another graph"
            )
        else:
            adjacency = shared
        if positive and adjacency.data.size and not (adjacency.data > 0).all():
            raise InputMismatchError(
                "adjacency contains nonpositive weights, but this solver "
                "expects GD+ (positive weights only); call positive_part() "
                "on the signed difference graph first"
            )
        return adjacency

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices (rows)."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.matrix.nnz) // 2

    def __repr__(self) -> str:
        return f"<CSRAdjacency n={self.n} m={self.num_edges}>"

    def __reduce__(self):
        """Pickle as ``(vertices, matrix)`` and rebuild through __init__.

        Reducing to the constructor arguments keeps the payload minimal
        (the ``index`` map and the memoised initialisation plan are
        derived state the receiver rebuilds on demand) and guarantees
        the raw ``indptr``/``indices``/``data`` views are re-bound to the
        unpickled matrix.  An
        adjacency over a shared-memory segment arrives as a private copy.
        """
        return (self.__class__, (self.vertices, self.matrix))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(Dx)`` — the gradient-defining product, at C speed."""
        return self.matrix @ x

    def objective(self, x: np.ndarray) -> float:
        """``f(x) = x^T D x``."""
        return float(x @ (self.matrix @ x))

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_indices, weights)`` views of row *i* (sorted)."""
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.data[start:end]

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """``(Dx)_i`` for a single coordinate in O(deg i)."""
        neighbors, weights = self.row(i)
        return float(weights @ x[neighbors])

    def degrees(self) -> np.ndarray:
        """Weighted degree of every vertex (row sums; may be negative)."""
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def unweighted_degrees(self) -> np.ndarray:
        """Number of incident edges per vertex."""
        return np.diff(self.indptr)

    def max_weight_edge(self) -> Optional[Edge]:
        """:meth:`Graph.max_weight_edge` in one ``argmax`` over ``data``.

        ``argmax`` returns the first maximum in row-major order; rows and
        columns both follow the repr order, so that is the tied edge with
        the smallest repr-sorted endpoint pair — the dict scan's answer.
        """
        if not self.data.size:
            return None
        position = int(np.argmax(self.data))
        row = int(np.searchsorted(self.indptr, position, side="right")) - 1
        return (
            self.vertices[row],
            self.vertices[int(self.indices[position])],
            float(self.data[position]),
        )

    def submatrix(self, rows: np.ndarray) -> "_scipy_sparse.csr_matrix":
        """The induced CSR block ``D[rows][:, rows]``."""
        return self.matrix[rows][:, rows]

    def gather_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries of the ascending, distinct rows *rows*, flattened.

        Returns ``(lptr, owner, cols, vals, local)``: the entries of
        ``rows[i]`` sit at ``lptr[i]:lptr[i + 1]`` in ascending column
        order, ``owner`` holds each entry's ``i``, and ``local`` the
        position of its column in *rows* (-1 outside).  The cost is
        O(|rows| + their degrees) in a fixed number of NumPy calls, and
        no state is shared: concurrent solves on one adjacency are safe.
        """
        size = int(rows.size)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        lptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=lptr[1:])
        owner = np.repeat(np.arange(size), lengths)
        entries = np.arange(lptr[size]) + (starts - lptr[:-1])[owner]
        cols = self.indices[entries]
        local = np.searchsorted(rows, cols)
        np.minimum(local, size - 1, out=local)
        local[rows[local] != cols] = -1
        return lptr, owner, cols, self.data[entries], local

    def positive_part(self) -> "CSRAdjacency":
        """``GD+`` in CSR form: keep strictly positive entries only."""
        _require_scipy()
        kept = self.matrix.multiply(self.matrix > 0).tocsr()
        kept.eliminate_zeros()
        kept.sort_indices()
        return CSRAdjacency(list(self.vertices), kept)

    # ------------------------------------------------------------------
    # embedding conversions
    # ------------------------------------------------------------------
    def embedding_vector(self, embedding: Mapping[Vertex, float]) -> np.ndarray:
        """Densify ``{vertex: weight}`` onto this index order."""
        vector = np.zeros(self.n, dtype=np.float64)
        for vertex, value in embedding.items():
            position = self.index.get(vertex)
            if position is None:
                raise VertexNotFound(vertex)
            vector[position] = value
        return vector

    def embedding_dict(
        self, vector: np.ndarray, tol: float = 0.0
    ) -> Dict[Vertex, float]:
        """Sparsify a dense vector back to ``{vertex: weight > tol}``."""
        support = np.flatnonzero(vector > tol)
        return {self.vertices[int(i)]: float(vector[i]) for i in support}
