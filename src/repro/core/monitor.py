"""Temporal contrast monitoring — the introduction's anomaly use case.

Section I: "we can build a weighted graph where the edge weights are our
expectation of how tightly the vertices are connected ... derived from,
for example, historical data.  Then we observe the current pairwise
connection strength ... and apply DCS on these two weighted graphs."

:class:`ContrastMonitor` packages that loop for a stream of snapshots:
the expectation is the mean of a sliding window of recent snapshots, and
each new snapshot is contrasted against it with either DCS solver.  The
emitted :class:`ContrastAlert` carries the flagged subgraph and its
contrast score; callers typically threshold the score.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Literal, Optional, Set

from repro.core.difference import difference_graph
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.engine.registry import Backend, get_backend, resolve_backend
from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph, Vertex

Measure = Literal["average_degree", "affinity"]


def mean_graph(graphs: Iterable[Graph], backend: Backend = "python") -> Graph:
    """Edge-wise mean of several graphs over the union vertex set.

    The natural "expectation" graph of a history window: an edge's weight
    is its average weight across the window (absent = 0).

    *backend* resolves through the engine registry — an unregistered
    name raises the standard
    :class:`~repro.exceptions.UnknownBackendError`.  ``"sparse"``
    accumulates the window through one shared vertex-index map and a
    SciPy COO sum — the per-edge additions run at C speed, which
    matters when the window is wide and the snapshots are large.  Both
    backends sum each edge's weights in the same (window) order, so
    results differ by at most float summation noise on the final
    division.
    """
    items = list(graphs)
    if not items:
        raise ValueError("cannot average zero graphs")
    return resolve_backend(backend).mean_graph(items)


def _mean_graph_python(items: List[Graph]) -> Graph:
    """The reference implementation behind the ``python`` backend."""
    result = Graph()
    for graph in items:
        result.add_vertices(graph.vertices())
    scale = 1.0 / len(items)
    for graph in items:
        for u, v, weight in graph.edges():
            result.increment_edge(u, v, weight * scale)
    return result


def _mean_graph_sparse(items: List[Graph]) -> Graph:
    """Vectorised mean: shared index map + one COO accumulation."""
    import numpy as np

    from repro.graph.sparse import _require_scipy, _scipy_sparse

    _require_scipy()
    index: dict = {}
    vertices: List[Vertex] = []
    for graph in items:
        for vertex in graph.vertices():
            if vertex not in index:
                index[vertex] = len(vertices)
                vertices.append(vertex)
    n = len(vertices)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for graph in items:
        for u, v, weight in graph.edges():
            i, j = index[u], index[v]
            # Canonical upper-triangle entry: snapshots can yield the
            # same undirected edge in either direction.
            rows.append(i if i < j else j)
            cols.append(j if i < j else i)
            vals.append(weight)
    # One COO build for the whole window: .tocsr() sums duplicate
    # positions at C speed (no per-snapshot matrix merges).
    total = _scipy_sparse.coo_matrix(
        (
            np.asarray(vals, dtype=np.float64),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        ),
        shape=(n, n),
    ).tocsr()
    mean = total.tocoo()
    scale = 1.0 / len(items)
    result = Graph()
    result.add_vertices(vertices)
    for i, j, weight in zip(mean.row, mean.col, mean.data):
        value = float(weight) * scale
        if value != 0.0:
            result.add_edge(vertices[int(i)], vertices[int(j)], value)
    return result


@dataclass(frozen=True)
class ContrastAlert:
    """One monitoring step's outcome."""

    step: int
    subset: Set[Vertex]
    score: float
    measure: Measure

    def exceeds(self, threshold: float) -> bool:
        """Whether the contrast is above an alerting threshold."""
        return self.score > threshold


class ContrastMonitor:
    """Sliding-window DCS monitor over a stream of graph snapshots.

    Parameters
    ----------
    window:
        Number of recent snapshots forming the expectation.
    measure:
        ``"average_degree"`` runs DCSGreedy (broad anomalies);
        ``"affinity"`` runs NewSEA (tight clusters, positive-clique
        output).
    warmup:
        Steps to observe before emitting alerts (at least 1 so an
        expectation exists; defaults to the window size).
    backend:
        A registered engine backend name (``"python"`` is the reference,
        ``"sparse"`` the vectorised CSR/NumPy backend) — applied to the
        window mean and to whichever solver *measure* selects; an
        unregistered name raises
        :class:`~repro.exceptions.UnknownBackendError`.
    """

    def __init__(
        self,
        window: int = 5,
        measure: Measure = "average_degree",
        warmup: Optional[int] = None,
        backend: Backend = "python",
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if measure not in ("average_degree", "affinity"):
            raise ValueError(f"unknown measure {measure!r}")
        # Unknown/unavailable names and solver-incapable backends all
        # fail here, at construction — never steps into a stream.
        solver_capabilities = (
            ("peel",)
            if measure == "average_degree"
            else ("initialization_plan", "vertex_solver")
        )
        get_backend(backend).require_capabilities(
            "mean_graph", *solver_capabilities
        )
        self.window = window
        self.measure: Measure = measure
        self.warmup = window if warmup is None else max(1, warmup)
        self.backend: Backend = backend
        self._history: Deque[Graph] = deque(maxlen=window)
        self._step = 0
        self._vertices: Optional[Set[Vertex]] = None

    @property
    def step(self) -> int:
        """Number of snapshots observed so far."""
        return self._step

    def observe(self, snapshot: Graph) -> Optional[ContrastAlert]:
        """Ingest one snapshot; return an alert once warmed up.

        All snapshots must share a vertex set (the DCS problem
        statement); the first snapshot fixes it.
        """
        if self._vertices is None:
            self._vertices = snapshot.vertex_set()
        elif snapshot.vertex_set() != self._vertices:
            raise InputMismatchError(
                "snapshot vertex set differs from the stream's"
            )

        alert: Optional[ContrastAlert] = None
        if len(self._history) >= 1 and self._step >= self.warmup:
            expected = mean_graph(self._history, backend=self.backend)
            gd = difference_graph(expected, snapshot)
            # One prepared context + the shared result envelope: the
            # monitor consumes the same engine seam as the CLI, batch
            # and streaming layers (KKT reporting skipped — this is a
            # per-step hot path).
            result = solve(
                SolveRequest(
                    measure=self.measure,
                    backend=self.backend,
                    check_kkt=False,
                ),
                PreparedGraph(gd),
            )
            alert = ContrastAlert(
                step=self._step,
                subset=set(result.subset),
                score=result.density,
                measure=self.measure,
            )
        self._history.append(snapshot)
        self._step += 1
        return alert

    def run(self, snapshots: Iterable[Graph]) -> List[ContrastAlert]:
        """Observe a whole stream; return the emitted alerts in order."""
        alerts: List[ContrastAlert] = []
        for snapshot in snapshots:
            alert = self.observe(snapshot)
            if alert is not None:
                alerts.append(alert)
        return alerts
