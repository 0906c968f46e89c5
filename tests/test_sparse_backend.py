"""Cross-backend parity: the sparse (CSR/NumPy) and python backends agree.

The sparse backend re-expresses the same algorithms with the same
convergence rules, so on generic inputs (seeded random graphs, where
exact floating-point ties have probability ~0) both backends must land
on the **same supports/subsets** and on objectives equal up to
floating-point summation order.  Exact bitwise equality is *not*
guaranteed — dict-order sums vs vectorised dots round differently — so
objectives are compared with tight relative tolerances.

Covered, per the acceptance criteria: replicator dynamics, SEACD,
greedy peeling, and the full ``new_sea`` pipeline; plus the building
blocks (CSR adjacency itself, the vectorised initialisation plan,
refinement, and the all-initialisations driver).

One tier *is* bitwise: the sparse peel against the vectorised NumPy
body it replaced (:class:`TestSparsePeelBitExact`), which must give the
same removal order, prefix and density bits.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.affinity.replicator import replicator_dynamics
from repro.core.dcsad import dcs_greedy
from repro.core.initialization import smart_initialization_plan
from repro.core.newsea import new_sea, solve_all_initializations
from repro.core.refinement import refine
from repro.core.seacd import seacd
from repro.exceptions import InputMismatchError, VertexNotFound
from repro.graph.generators import random_signed_graph
from repro.graph.graph import Graph
from repro.graph.matrices import affinity_matrix
from repro.graph.sparse import CSRAdjacency
from repro.peeling.greedy import PeelResult, _peel_sparse, greedy_peel

SEEDS = (3, 7, 21)


def _random_gd(seed: int, n: int = 48, p: float = 0.18) -> Graph:
    return random_signed_graph(n, p, positive_fraction=0.6, seed=seed)


# ----------------------------------------------------------------------
# the CSR substrate itself
# ----------------------------------------------------------------------
class TestCSRAdjacency:
    def test_matches_dense_affinity_matrix(self):
        gd = _random_gd(1)
        adj = CSRAdjacency.from_graph(gd)
        dense, order = affinity_matrix(gd)
        assert order == adj.vertices
        assert np.allclose(adj.matrix.toarray(), dense)

    def test_matvec_and_objective(self):
        gd = _random_gd(2)
        adj = CSRAdjacency.from_graph(gd)
        dense, order = affinity_matrix(gd)
        rng = np.random.default_rng(0)
        x = rng.random(len(order))
        assert np.allclose(adj.matvec(x), dense @ x)
        assert adj.objective(x) == pytest.approx(float(x @ dense @ x))

    def test_degrees_match_graph(self):
        gd = _random_gd(3)
        adj = CSRAdjacency.from_graph(gd)
        for vertex, i in adj.index.items():
            assert adj.degrees()[i] == pytest.approx(gd.degree(vertex))
            assert adj.unweighted_degrees()[i] == gd.unweighted_degree(vertex)

    def test_positive_part(self):
        gd = _random_gd(4)
        plus = CSRAdjacency.from_graph(gd).positive_part()
        dense, _ = affinity_matrix(gd.positive_part())
        assert np.allclose(plus.matrix.toarray(), dense)

    def test_embedding_round_trip(self):
        gd = _random_gd(5)
        adj = CSRAdjacency.from_graph(gd)
        embedding = {adj.vertices[0]: 0.25, adj.vertices[3]: 0.75}
        vector = adj.embedding_vector(embedding)
        assert adj.embedding_dict(vector) == embedding
        with pytest.raises(VertexNotFound):
            adj.embedding_vector({"missing-vertex": 1.0})

    def test_dense_block_matches_submatrix(self):
        from repro.core.sparse_solvers import _Rows

        gd = _random_gd(6)
        adj = CSRAdjacency.from_graph(gd)
        rows = np.array([1, 4, 9, 17])
        gathered = _Rows(adj, rows)
        assert np.array_equal(gathered.block(), adj.submatrix(rows).toarray())
        # The block of a sub-support comes from the same gather.
        sel = np.array([0, 2, 3])
        assert np.array_equal(
            gathered.block(sel), adj.submatrix(rows[sel]).toarray()
        )
        other = np.array([0, 2, 9])
        assert np.array_equal(
            _Rows(adj, other).block(), adj.submatrix(other).toarray()
        )


# ----------------------------------------------------------------------
# replicator dynamics
# ----------------------------------------------------------------------
class TestReplicatorParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rule", ["objective", "gradient"])
    def test_uniform_start(self, seed, rule):
        gp = _random_gd(seed).positive_part()
        x0 = {u: 1.0 / gp.num_vertices for u in gp.vertices()}
        tol = 1e-6 if rule == "objective" else 1e-3
        py = replicator_dynamics(gp, x0, rule=rule, tol=tol)
        sp = replicator_dynamics(gp, x0, rule=rule, tol=tol, backend="sparse")
        assert sp.converged == py.converged
        assert sp.iterations == py.iterations
        assert set(sp.x) == set(py.x)
        assert sp.objective == pytest.approx(py.objective, rel=1e-9)
        for vertex, weight in py.x.items():
            assert sp.x[vertex] == pytest.approx(weight, abs=1e-9)

    def test_rejects_negative_weights(self):
        gd = Graph.from_edges([("a", "b", 1.0), ("b", "c", -1.0)])
        x0 = {u: 1.0 / 3.0 for u in "abc"}
        with pytest.raises(ValueError):
            replicator_dynamics(gd, x0, backend="sparse")

    def test_unknown_backend(self):
        gp = _random_gd(0).positive_part()
        with pytest.raises(ValueError):
            replicator_dynamics(gp, {next(gp.vertices()): 1.0}, backend="cuda")


# ----------------------------------------------------------------------
# SEACD
# ----------------------------------------------------------------------
class TestSEACDParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_from_single_vertices(self, seed):
        gp = _random_gd(seed).positive_part()
        for vertex in list(gp.vertices())[::7]:
            py = seacd(gp, {vertex: 1.0})
            sp = seacd(gp, {vertex: 1.0}, backend="sparse")
            assert sp.converged and py.converged
            assert set(sp.x) == set(py.x)
            assert sp.objective == pytest.approx(py.objective, rel=1e-6)
            assert sp.stats.expansions == py.stats.expansions

    def test_empty_support_rejected(self):
        gp = _random_gd(0).positive_part()
        with pytest.raises(ValueError):
            seacd(gp, {}, backend="sparse")

    def test_unknown_backend(self):
        gp = _random_gd(0).positive_part()
        with pytest.raises(ValueError):
            seacd(gp, {next(gp.vertices()): 1.0}, backend="fortran")


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------
class TestRefineParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lands_on_same_clique(self, seed):
        gp = _random_gd(seed).positive_part()
        vertex = next(gp.vertices())
        kkt = seacd(gp, {vertex: 1.0})
        py = refine(gp, kkt.x)
        sp = refine(gp, kkt.x, backend="sparse")
        assert set(sp.x) == set(py.x)
        assert sp.objective == pytest.approx(py.objective, rel=1e-6)
        assert sp.initial_objective == pytest.approx(
            py.initial_objective, rel=1e-9
        )

    def test_non_clique_support_is_merged(self):
        # A path a-b-c is not a clique: refinement must merge it down.
        gp = Graph.from_edges([("a", "b", 2.0), ("b", "c", 1.0)])
        x0 = {"a": 0.4, "b": 0.4, "c": 0.2}
        py = refine(gp, x0)
        sp = refine(gp, x0, backend="sparse")
        assert sp.merges == py.merges > 0
        assert set(sp.x) == set(py.x)
        assert sp.objective == pytest.approx(py.objective, rel=1e-9)


# ----------------------------------------------------------------------
# greedy peeling
# ----------------------------------------------------------------------
class TestPeelingParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_signed_random_graphs(self, seed):
        gd = _random_gd(seed)
        py = greedy_peel(gd, backend="heap")
        sp = greedy_peel(gd, backend="sparse")
        assert sp.subset == py.subset
        assert sp.density == pytest.approx(py.density, rel=1e-9)
        assert len(sp.order) == len(py.order)
        assert np.allclose(sp.densities, py.densities)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_positive_part_peel(self, seed):
        gp = _random_gd(seed).positive_part()
        py = greedy_peel(gp, backend="segment_tree")
        sp = greedy_peel(gp, backend="sparse")
        assert sp.subset == py.subset
        assert sp.density == pytest.approx(py.density, rel=1e-9)

    def test_single_vertex(self):
        graph = Graph()
        graph.add_vertex("only")
        result = greedy_peel(graph, backend="sparse")
        assert result.subset == {"only"}
        assert result.order == ["only"]

    def test_python_alias_means_heap(self):
        gd = _random_gd(11)
        assert (
            greedy_peel(gd, backend="python").subset
            == greedy_peel(gd, backend="heap").subset
        )

    def test_dcs_greedy_with_sparse_backend(self):
        gd = _random_gd(9)
        py = dcs_greedy(gd, backend="heap")
        sp = dcs_greedy(gd, backend="sparse")
        assert sp.subset == py.subset
        assert sp.density == pytest.approx(py.density, rel=1e-9)
        assert sp.winner == py.winner


# The vectorised sparse peel that the scalar loop replaced, kept
# verbatim as the oracle of TestSparsePeelBitExact.
def _numpy_peel_oracle(
    graph: Graph, adjacency: Optional["CSRAdjacency"] = None
) -> PeelResult:
    """Vectorised peel: CSR degree array + lazy heap.

    Degrees are initialised as one row-sum and updated with O(deg)
    NumPy row slices; the priority queue is a lazy ``heapq`` (an entry
    is stale unless its key equals the vertex's current degree), which
    handles both key directions of signed weights without an
    addressable structure.  *adjacency* supplies the graph's prebuilt
    CSR (validated cheaply against vertex/edge counts) so shared
    preparations skip the freeze.
    """
    import numpy as np

    from repro.graph.sparse import CSRAdjacency

    adj = CSRAdjacency.for_graph(graph, adjacency)
    n = adj.n
    degrees = adj.degrees().copy()
    alive = np.ones(n, dtype=bool)
    heap = [(float(degrees[i]), i) for i in range(n)]
    heapq.heapify(heap)

    def pop_min() -> int:
        while True:
            key, vertex = heapq.heappop(heap)
            if alive[vertex] and key == degrees[vertex]:
                return vertex

    total_degree = float(degrees.sum())
    size = n
    order_idx: List[int] = []
    densities: List[float] = []
    best_density = total_degree / size
    best_size = size
    densities.append(best_density)

    while size > 1:
        vertex = pop_min()
        alive[vertex] = False
        order_idx.append(vertex)
        neighbors, weights = adj.row(vertex)
        live = alive[neighbors]
        touched = neighbors[live]
        removed = weights[live]
        degrees[touched] -= removed
        for neighbor in touched:
            heapq.heappush(heap, (float(degrees[neighbor]), int(neighbor)))
        # Each removed undirected edge contributes twice to the total
        # degree: once at each endpoint.
        total_degree -= 2.0 * float(removed.sum())
        size -= 1
        density = total_degree / size
        densities.append(density)
        if density > best_density:
            best_density = density
            best_size = size

    # The last vertex (density 0 on its own) completes the order.
    order_idx.append(pop_min())

    order = [adj.vertices[i] for i in order_idx]
    removed_count = n - best_size
    subset = set(order[removed_count:])
    return PeelResult(
        subset=subset,
        density=best_density,
        order=order,
        densities=densities,
    )


@st.composite
def peel_cases(draw) -> Graph:
    """A signed graph with fractional weights built to reach every
    branch of the scalar sparse peel.

    * a planted clique of 9-14 vertices: its first member to go still
      has at least 8 live neighbours, so NumPy's pairwise rule applies;
    * 1-3 vertices whose every edge is negative: removing one *raises*
      its neighbours' degrees;
    * 0-3 isolated vertices;
    * weights either continuous or on a coarse decimal grid, whose
      inexact sums and frequent degree ties stress the summation order
      and the ``(degree, index)`` tie-break.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    clique = draw(st.integers(9, 14))
    others = draw(st.integers(0, 20))
    negatives = draw(st.integers(1, 3))
    isolated = draw(st.integers(0, 3))
    density = draw(st.floats(min_value=0.05, max_value=0.6))

    def magnitude() -> float:
        if grid:
            return rng.choice((0.1, 0.2, 0.3, 0.7, 1.1, 2.5))
        return rng.uniform(0.05, 3.0)

    def signed() -> float:
        return magnitude() if rng.random() < 0.65 else -magnitude()

    graph = Graph()
    core = list(range(clique + others))
    graph.add_vertices(range(clique + others + negatives + isolated))
    for u in range(clique):
        for v in range(u + 1, clique):
            graph.add_edge(u, v, signed())
    for u in core:
        for v in range(max(u + 1, clique), len(core)):
            if rng.random() < density:
                graph.add_edge(u, v, signed())
    for u in range(len(core), len(core) + negatives):
        for v in rng.sample(core, rng.randint(1, min(9, len(core)))):
            graph.add_edge(u, v, -magnitude())
    return graph


def _max_live_at_removal(graph: Graph, order: List) -> int:
    """The most not-yet-removed neighbours any vertex had when peeled."""
    gone = set()
    most = 0
    for vertex in order:
        gone.add(vertex)
        most = max(most, sum(1 for u in graph.neighbors(vertex) if u not in gone))
    return most


def _read_only_csr(graph: Graph) -> CSRAdjacency:
    """The CSR of *graph* over frozen array copies, as a shared-memory
    attach (:mod:`repro.engine.shm`) hands it to a worker."""
    from repro.engine.shm import _csr_from_arrays

    adj = CSRAdjacency.from_graph(graph)
    arrays = []
    for array in (adj.indptr, adj.indices, adj.data):
        frozen = array.copy()
        frozen.flags.writeable = False
        arrays.append(frozen)
    return _csr_from_arrays(adj.vertices, *arrays)


class TestSparsePeelBitExact:
    """The scalar sparse peel against the vectorised NumPy body it
    replaced, kept above as the oracle: same pop order, same prefix and
    the same density bits, on private and read-only CSR arrays."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(peel_cases())
    def test_matches_numpy_oracle_bit_for_bit(self, graph):
        expected = _numpy_peel_oracle(graph)
        assert _max_live_at_removal(graph, expected.order) >= 8
        shared = _read_only_csr(graph)
        assert not shared.data.flags.writeable
        for adjacency in (None, shared):
            got = _peel_sparse(graph, adjacency=adjacency)
            assert got.order == expected.order
            assert got.subset == expected.subset
            assert got.density.hex() == expected.density.hex()
            assert [d.hex() for d in got.densities] == [
                d.hex() for d in expected.densities
            ]


# ----------------------------------------------------------------------
# initialisation plan
# ----------------------------------------------------------------------
class TestPlanParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounds_and_order(self, seed):
        gp = _random_gd(seed).positive_part()
        py = smart_initialization_plan(gp)
        sp = smart_initialization_plan(gp, backend="sparse")
        # max/div arithmetic only: the bounds are bitwise identical.
        assert sp.mu == py.mu
        assert sp.order == py.order

    def test_edgeless_graph(self):
        graph = Graph()
        graph.add_vertices("abc")
        sp = smart_initialization_plan(graph, backend="sparse")
        assert sp.mu == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_adjacency_of_signed_graph_rejected(self):
        # The CSR of GD passed for GD+ would give a plan with the wrong
        # mu and order, on which new_sea(plan=...) would then prune.
        gd = random_signed_graph(30, 0.3, seed=1)
        with pytest.raises(InputMismatchError):
            smart_initialization_plan(
                gd.positive_part(),
                backend="sparse",
                adjacency=CSRAdjacency.from_graph(gd),
            )


# ----------------------------------------------------------------------
# the full pipelines
# ----------------------------------------------------------------------
class TestNewSEAParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_pipeline(self, seed):
        gp = _random_gd(seed).positive_part()
        py = new_sea(gp)
        sp = new_sea(gp, backend="sparse")
        assert sp.support == py.support
        assert sp.objective == pytest.approx(py.objective, rel=1e-6)
        assert sp.is_positive_clique == py.is_positive_clique
        assert sp.initializations == py.initializations

    def test_edgeless_fallback(self):
        graph = Graph()
        graph.add_vertices([2, 1, 3])
        py = new_sea(graph)
        sp = new_sea(graph, backend="sparse")
        assert sp.support == py.support
        assert sp.objective == py.objective == 0.0

    def test_unknown_backend(self):
        gp = _random_gd(0).positive_part()
        with pytest.raises(ValueError):
            new_sea(gp, backend="dense")

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_all_initializations(self, seed):
        gp = _random_gd(seed, n=36).positive_part()
        py = solve_all_initializations(gp)
        sp = solve_all_initializations(gp, backend="sparse")
        assert [s[0] for s in sp.solutions] == [s[0] for s in py.solutions]
        for (_, _, obj_sp), (_, _, obj_py) in zip(sp.solutions, py.solutions):
            assert obj_sp == pytest.approx(obj_py, rel=1e-6)
        assert sp.best.support == py.best.support
