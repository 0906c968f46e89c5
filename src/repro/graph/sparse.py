"""CSR adjacency — the vectorised compute substrate for the solvers.

The pure-Python :class:`~repro.graph.graph.Graph` (dict-of-dicts) is the
*reference* representation: flexible, hashable vertices, cheap mutation.
The iterative DCSGA solvers, however, spend almost all of their time in
three kernels — ``(Dx)`` products, per-coordinate gradient updates and
degree bookkeeping — that a Compressed-Sparse-Row matrix executes as
NumPy/SciPy vector operations instead of Python dict loops.

:class:`CSRAdjacency` holds a graph in that form:

* an explicit ``vertices`` list and ``index`` map (vertex <-> row id),
  ordered by ``repr`` so every backend agrees on tie-breaks;
* raw ``indptr``/``indices``/``data`` arrays (the affinity matrix ``D``
  of the paper: symmetric, zero diagonal, columns ascending per row);
* a ``scipy.sparse`` CSR ``matrix`` wrapped around those same arrays.

One NumPy-only reader, :func:`graph_entries`, turns a dict graph into
arrays.  :func:`csr_arrays` (and through it
:meth:`CSRAdjacency.from_graph` and :func:`graph_fingerprint`) and the
array-first difference assembly
(:func:`repro.core.difference.assemble_difference`) all read through
it.  Embeddings cross the boundary through :meth:`embedding_vector` /
:meth:`embedding_dict`, so callers keep speaking ``{vertex: weight}``
while the kernels speak dense ``ndarray``.

SciPy is gated, not required: the arrays, :meth:`positive_part` and
the fingerprint need NumPy only, ``matrix`` is None without SciPy, and
only the sparse backend's entry point :meth:`from_graph` raises
:class:`~repro.exceptions.BackendUnavailableError`.
"""

from __future__ import annotations

import hashlib
from itertools import chain
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


def _index_dtype(n: int, nnz: int) -> "np.dtype":
    """SciPy's choice of CSR index type: int32 while it can hold both."""
    fits = max(n, nnz) <= np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def graph_entries(
    graph: Graph, index: Mapping[Vertex, int]
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Read a dict graph into ``(keys, weights)`` arrays over *index*.

    Every stored entry (each undirected edge twice, once per endpoint)
    becomes the key ``row * n + col``, with ``n = len(index)``; the
    entries come back sorted by key, which is CSR's row-major order.
    This is the one loop from the dict-of-dicts form to arrays: the
    difference assembly reads G1 and G2 through it over their union's
    rows, and :func:`csr_arrays` reads single graphs.  NumPy only.
    """
    n = len(index)
    lookup = index.__getitem__
    rows = list(map(graph.neighbors, graph))
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    size = int(lengths.sum())
    keys = np.repeat(
        np.fromiter(map(lookup, graph), dtype=np.int64, count=len(rows)) * n,
        lengths,
    )
    keys += np.fromiter(
        map(lookup, chain.from_iterable(rows)), dtype=np.int64, count=size
    )
    weights = np.fromiter(
        chain.from_iterable(row.values() for row in rows),
        dtype=np.float64,
        count=size,
    )
    order = np.argsort(keys, kind="stable")
    return keys[order], weights[order]


def entries_to_csr(
    n: int, keys: "np.ndarray", weights: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(indptr, indices, data)`` of sorted, distinct ``row * n + col``
    keys — the inverse of the key encoding of :func:`graph_entries`."""
    dtype = _index_dtype(n, int(keys.size))
    rows = keys // max(n, 1)
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, (keys - rows * n).astype(dtype, copy=False), weights


def csr_arrays(
    graph: Graph,
) -> Tuple[List[Vertex], "np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(vertices, indptr, indices, data)`` of *graph*, rows in repr order.

    The arrays :meth:`CSRAdjacency.from_graph` wraps and
    :func:`graph_fingerprint` hashes; NumPy only.
    """
    vertices = sorted(graph.vertices(), key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    return (vertices, *entries_to_csr(len(vertices), *graph_entries(graph, index)))


def csr_fingerprint(
    vertices: List[Vertex],
    indptr: "np.ndarray",
    indices: "np.ndarray",
    data: "np.ndarray",
) -> str:
    """:func:`graph_fingerprint` of repr-ordered CSR arrays.

    The digest reads the repr-sorted vertex names, then the upper
    triangle in row-major order: with rows and columns in repr order,
    that is every edge sorted by ``(repr u, repr v)``, so the arrays
    hash exactly as the dict graph they hold.
    """
    names = [repr(v) for v in vertices]
    digest = hashlib.sha256()
    digest.update("".join(f"{name}\0" for name in names).encode("utf-8"))
    digest.update(b"\x01")
    rows = np.repeat(np.arange(len(names)), np.diff(indptr))
    upper = indices > rows
    digest.update(
        "".join(
            f"{names[i]}\0{names[j]}\0{weight.hex()}\0"
            for i, j, weight in zip(
                rows[upper].tolist(),
                indices[upper].tolist(),
                data[upper].tolist(),
            )
        ).encode("utf-8")
    )
    return digest.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a :class:`Graph` — the identity of a frozen input.

    Two graphs fingerprint equally iff they have the same vertex set
    (by ``repr``) and the same edge weights (bit-exact, via ``hex()``).
    The batch layer keys its shared-preprocessing DAG and its
    content-addressed result cache on this, so the hash must be stable
    across processes and sessions — it deliberately uses ``repr``
    ordering (the backend tie-break order) and no ``hash()`` (which is
    salted per process for strings).

    The digest covers the repr-sorted vertex names, then each edge as
    ``(repr u, repr v, weight.hex())`` sorted by the endpoint names.
    The graph is read once through :func:`csr_arrays` and hashed by
    :func:`csr_fingerprint`, so a preparation that holds only the arrays
    hashes to the same digest; NumPy only, SciPy is not required.
    """
    return csr_fingerprint(*csr_arrays(graph))


def _require_scipy() -> None:
    if _scipy_sparse is None:  # pragma: no cover - container ships SciPy
        raise BackendUnavailableError(
            "backend='sparse' requires SciPy, which is not installed; "
            "use the pure-Python backend instead"
        )


class CSRAdjacency:
    """A frozen CSR form of a :class:`Graph` with explicit index maps.

    Build once with :meth:`from_graph` (or wrap arrays that are already
    CSR, as the difference assembly and the shared-memory store do),
    then share across every solver stage of a pipeline run — reading
    the dict graph is the only O(m) Python loop; everything afterwards
    is vectorised.
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
        self,
        vertices: List[Vertex],
        indptr: "np.ndarray",
        indices: "np.ndarray",
        data: "np.ndarray",
    ) -> None:
        """Wrap CSR arrays whose rows and columns follow *vertices*.

        The arrays are adopted, never copied: the ``matrix`` is built by
        attribute assignment, because SciPy's constructor may re-validate
        or down-cast the index arrays and so copy shared-memory views
        into private memory.  The caller guarantees the CSR invariants
        (sorted distinct columns, symmetric, zero diagonal).
        """
        self.vertices = vertices
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.matrix: Optional["_scipy_sparse.csr_matrix"] = None
        if _scipy_sparse is not None:
            n = len(vertices)
            self.matrix = _scipy_sparse.csr_matrix((n, n), dtype=np.float64)
            self.matrix.data = data
            self.matrix.indices = indices
            self.matrix.indptr = indptr
        #: NewSEA's initialisation plan of this (``GD+``) adjacency, built
        #: on first request by
        #: :func:`repro.core.initialization.smart_initialization_plan`
        self._init_plan: Optional["InitializationPlan"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRAdjacency":
        """Freeze *graph* into CSR form — the sparse backend's entry point.

        Row indices follow the vertices sorted by ``repr`` (the same
        deterministic order the dense
        :func:`~repro.graph.matrices.affinity_matrix` uses, and the
        tie-break order of the python backend's initialisation plan);
        the arrays come from :func:`csr_arrays`, with SciPy's index
        dtype and each row's columns ascending.
        """
        _require_scipy()
        return cls(*csr_arrays(graph))

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
        return int(self.data.size) // 2

    def __repr__(self) -> str:
        return f"<CSRAdjacency n={self.n} m={self.num_edges}>"

    def __reduce__(self):
        """Pickle as the constructor's arrays and rebuild through __init__.

        Reducing to the constructor arguments keeps the payload minimal
        (the ``index`` map, the ``matrix`` wrapper and the memoised
        initialisation plan are derived state the receiver rebuilds on
        demand).  An adjacency over a shared-memory segment arrives as
        a private copy.
        """
        return (
            self.__class__,
            (self.vertices, self.indptr, self.indices, self.data),
        )

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(Dx)`` — the gradient-defining product, at C speed."""
        return self.matrix @ x

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
        """``GD+`` in CSR form: keep strictly positive entries only.

        One mask over ``data``; row ``i`` of the result starts at the
        count of kept entries before ``indptr[i]``.  The arrays equal
        :meth:`from_graph` of the dict ``GD+`` bit for bit; NumPy only.
        """
        keep = self.data > 0
        before = np.zeros(self.data.size + 1, dtype=np.int64)
        np.cumsum(keep, out=before[1:])
        dtype = _index_dtype(self.n, int(before[-1]))
        return CSRAdjacency(
            list(self.vertices),
            before[self.indptr].astype(dtype),
            self.indices[keep].astype(dtype, copy=False),
            self.data[keep],
        )

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
