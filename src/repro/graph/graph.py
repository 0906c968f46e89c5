"""Undirected weighted graph with dict-of-dict adjacency.

This is the substrate every algorithm in the library runs on.  Design
notes:

* **Signed weights are first-class.**  Difference graphs ``GD = G2 - G1``
  carry negative edge weights; nothing in this class assumes positivity.
  A weight of exactly ``0`` means *no edge* (matching the paper's
  ``ED = {(u, v) | D(u, v) != 0}``), so ``add_edge(u, v, 0.0)`` removes
  any existing edge instead of storing it.
* **No self loops.**  Affinity matrices in the paper have zero diagonals;
  attempting to add a self loop raises :class:`~repro.exceptions.SelfLoopError`.
* **Vertices are arbitrary hashables** (author names, keywords, ints).

The *total degree* convention follows Eq. (1) of the paper: ``W(S)``
counts each undirected edge twice (it is the sum of induced weighted
degrees), so the average degree of a k-clique with unit weights is
``k - 1``.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import EdgeNotFound, SelfLoopError, VertexNotFound

Vertex = Hashable
Edge = Tuple[Vertex, Vertex, float]


class Graph:
    """An undirected graph with real (possibly negative) edge weights."""

    __slots__ = ("_adj", "_num_edges")

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex, float]],
        vertices: Iterable[Vertex] = (),
    ) -> "Graph":
        """Build a graph from ``(u, v, weight)`` triples.

        *vertices* may list extra isolated vertices.  Repeated edges
        overwrite earlier weights (last write wins).
        """
        graph = cls()
        for vertex in vertices:
            graph.add_vertex(vertex)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight)
        return graph

    @classmethod
    def from_csr_rows(
        cls,
        vertices: Sequence[Vertex],
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
    ) -> "Graph":
        """Adopt the rows of a symmetric CSR adjacency, one dict per row.

        Row ``i`` of the CSR lists vertex ``vertices[i]``'s neighbours
        (``indices[indptr[i]:indptr[i + 1]]``) and their weights.  The
        input is trusted, as a frozen CSR guarantees: symmetric, no
        diagonal, every weight finite and nonzero.  Vertices and each
        vertex's neighbours keep the CSR's order.
        """
        labels = [vertices[j] for j in indices]
        bounds = zip(indptr, indptr[1:])
        graph = cls()
        graph._adj = {
            u: dict(zip(labels[start:end], weights[start:end]))
            for u, (start, end) in zip(vertices, bounds)
        }
        graph._num_edges = len(labels) // 2
        return graph

    @classmethod
    def from_unweighted_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Iterable[Vertex] = (),
    ) -> "Graph":
        """Build a graph with unit weights from ``(u, v)`` pairs."""
        return cls.from_edges(((u, v, 1.0) for u, v in edges), vertices)

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"<Graph n={self.num_vertices} m={self.num_edges}>"

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``n`` in the paper."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``m`` in the paper."""
        return self._num_edges

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        self._adj.setdefault(vertex, {})

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex in *vertices*."""
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Set the weight of edge ``(u, v)``, creating endpoints as needed.

        A weight of exactly 0 deletes the edge: zero-weight entries would
        silently distort edge counts and density statistics.  Non-finite
        weights are rejected — a single NaN silently poisons every
        density computation downstream.
        """
        if u == v:
            raise SelfLoopError(u)
        if weight != weight or weight in (float("inf"), float("-inf")):
            raise ValueError(
                f"edge ({u!r}, {v!r}) has non-finite weight {weight!r}"
            )
        if weight == 0:
            self.add_vertex(u)
            self.add_vertex(v)
            self.discard_edge(u, v)
            return
        adj = self._adj
        adj.setdefault(u, {})
        adj.setdefault(v, {})
        if v not in adj[u]:
            self._num_edges += 1
        adj[u][v] = weight
        adj[v][u] = weight

    def increment_edge(self, u: Vertex, v: Vertex, delta: float) -> None:
        """Add *delta* to the weight of ``(u, v)`` (creating it if absent).

        If the resulting weight is exactly 0 the edge is removed,
        preserving the ``weight != 0`` invariant.
        """
        self.add_edge(u, v, self.weight(u, v) + delta)

    def remove_edge(self, u: Vertex, v: Vertex) -> float:
        """Delete edge ``(u, v)`` and return its weight."""
        try:
            weight = self._adj[u].pop(v)
        except KeyError:
            raise EdgeNotFound(u, v) from None
        del self._adj[v][u]
        self._num_edges -= 1
        return weight

    def discard_edge(self, u: Vertex, v: Vertex) -> Optional[float]:
        """Delete edge ``(u, v)`` if present; return its weight or None."""
        if u in self._adj and v in self._adj[u]:
            return self.remove_edge(u, v)
        return None

    def remove_vertex(self, vertex: Vertex) -> None:
        """Delete *vertex* and all incident edges."""
        try:
            neighbors = self._adj.pop(vertex)
        except KeyError:
            raise VertexNotFound(vertex) from None
        for neighbor in neighbors:
            del self._adj[neighbor][vertex]
        self._num_edges -= len(neighbors)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether *vertex* is present."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` is present (weight nonzero)."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Vertex, v: Vertex, default: float = 0.0) -> float:
        """Weight of edge ``(u, v)``; *default* (0 = no edge) if absent."""
        if u in self._adj:
            return self._adj[u].get(v, default)
        return default

    def neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Read-only mapping ``neighbor -> weight`` for *vertex*.

        This is the paper's ``N_D(i)`` (with weights attached); mutating
        the graph while holding the mapping invalidates it.
        """
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFound(vertex) from None

    def degree(self, vertex: Vertex) -> float:
        """Weighted degree: sum of incident edge weights (can be negative)."""
        return sum(self.neighbors(vertex).values())

    def unweighted_degree(self, vertex: Vertex) -> int:
        """Number of incident edges."""
        return len(self.neighbors(vertex))

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices."""
        return iter(self._adj)

    def vertex_set(self) -> Set[Vertex]:
        """A fresh set of all vertices."""
        return set(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once as ``(u, v, w)``.

        The first endpoint is the one whose adjacency list is visited
        first; duplicates are suppressed with a seen-set per vertex pair.
        """
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v, weight in nbrs.items():
                if v not in seen:
                    yield u, v, weight
            seen.add(u)

    def total_weight(self) -> float:
        """Sum of undirected edge weights (each edge counted **once**)."""
        return sum(weight for _, _, weight in self.edges())

    def total_degree(self, subset: Optional[Iterable[Vertex]] = None) -> float:
        """The paper's ``W(S)``: sum of induced weighted degrees.

        Each undirected edge inside the induced subgraph counts **twice**
        (Eq. 1).  With ``subset=None`` the whole vertex set is used.
        """
        if subset is None:
            return 2.0 * self.total_weight()
        members = set(subset)
        for vertex in members:
            if vertex not in self._adj:
                raise VertexNotFound(vertex)
        total = 0.0
        for u in members:
            for v, weight in self._adj[u].items():
                if v in members:
                    total += weight
        return total

    def max_weight_edge(self) -> Optional[Edge]:
        """The edge of maximum weight, or None for an edgeless graph.

        Returned as ``(u, v, weight)`` with ``repr(u) <= repr(v)``.  Among
        edges tied at the maximum weight, the one whose repr-sorted
        endpoint pair is smallest wins: the first maximum of a
        :class:`~repro.graph.sparse.CSRAdjacency`'s data in row-major
        order, so the dict and CSR backends pick the same edge.  Repr
        keys are built only for endpoints of top-weight edges.
        """
        incident = {u: max(nbrs.values()) for u, nbrs in self._adj.items() if nbrs}
        if not incident:
            return None
        top = max(incident.values())
        # Every endpoint of a top-weight edge has top as its incident max,
        # so the smallest such repr starts the winning pair.
        u = min((x for x, w in incident.items() if w == top), key=repr)
        v = min((x for x, w in self._adj[u].items() if w == top), key=repr)
        return u, v, top

    def min_weight_edge(self) -> Optional[Edge]:
        """The edge of minimum weight, or None for an edgeless graph."""
        best: Optional[Edge] = None
        for edge in self.edges():
            if best is None or edge[2] < best[2]:
                best = edge
        return best

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, subset: Iterable[Vertex]) -> "Graph":
        """Induced subgraph ``G(S)`` as a new independent graph."""
        members = set(subset)
        result = Graph()
        for vertex in members:
            if vertex not in self._adj:
                raise VertexNotFound(vertex)
            result.add_vertex(vertex)
        for u in members:
            for v, weight in self._adj[u].items():
                if v in members and not result.has_edge(u, v):
                    result.add_edge(u, v, weight)
        return result

    def positive_part(self) -> "Graph":
        """The paper's ``GD+``: keep only edges of strictly positive weight.

        All vertices are retained (the vertex set is shared between
        ``GD`` and ``GD+`` in the paper).
        """
        result = Graph()
        result.add_vertices(self._adj)
        for u, v, weight in self.edges():
            if weight > 0:
                result.add_edge(u, v, weight)
        return result

    def negated(self) -> "Graph":
        """Flip the sign of every edge weight (Emerging <-> Disappearing)."""
        result = Graph()
        result.add_vertices(self._adj)
        for u, v, weight in self.edges():
            result.add_edge(u, v, -weight)
        return result

    def map_weights(self, func) -> "Graph":
        """Apply ``func(weight) -> new_weight`` to every edge.

        Edges mapped to 0 are dropped, preserving the nonzero invariant.
        Used by the Discrete setting and heavy-edge capping.
        """
        result = Graph()
        result.add_vertices(self._adj)
        for u, v, weight in self.edges():
            new_weight = func(weight)
            if new_weight != 0:
                result.add_edge(u, v, new_weight)
        return result

    def relabeled(self, mapping: Mapping[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertices renamed through *mapping*.

        Vertices absent from *mapping* keep their labels.  The mapping
        must be injective on the vertex set.
        """
        rename = {u: mapping.get(u, u) for u in self._adj}
        if len(set(rename.values())) != len(rename):
            raise ValueError("relabeling mapping is not injective")
        result = Graph()
        result.add_vertices(rename.values())
        for u, v, weight in self.edges():
            result.add_edge(rename[u], rename[v], weight)
        return result
