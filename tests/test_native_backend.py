"""Property and differential tier for the native kernel backend.

The native backend's kernels (:mod:`repro.core.native_kernels`) are
plain loop-nest Python that Numba compiles verbatim — so running them
*interpreted* (``NativeBackend(jit=False)``) exercises exactly the code
the JIT compiles, and the differential assertions here hold with or
without Numba installed:

* **bitwise parity with sparse** — the kernels replay the sparse
  implementations' float operations in the same order, so coordinate
  descent and NewSEA must agree *exactly* (``==``, not approx) with
  the ``sparse`` backend; peeling agrees exactly on pop order and
  subset, with densities free only in the last bits (NumPy pairwise
  ``removed.sum()`` vs the kernel's sequential accumulation);
* **reference parity with python** — supports equal, objectives equal
  up to summation order (the PR-1 contract);
* **JIT edge cases** — empty/one-vertex graphs, isolated vertices,
  self-loops and duplicate edges, all-equal weights (tie-breaking),
  extreme weight magnitudes — the inputs where a transcribed kernel
  silently diverges (hypothesis drives the structure);
* **operational contracts** — graceful ``fallback="sparse"``
  degradation with a single warning, kernel-set caching (one build per
  process), and the batch warm-once regression (pool initializers warm
  the backend; queries never re-trigger a build).

Tests marked ``jit`` compile for real and only run with Numba present
(``pytest -m jit``); everything else is the default tier.
"""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.native_kernels import (
    get_kernels,
    kernel_build_count,
    numba_available,
    warm_kernels,
)
from repro.core.newsea import new_sea
from repro.exceptions import (
    BackendFallbackWarning,
    BackendUnavailableError,
    SelfLoopError,
)
from repro.graph.graph import Graph
from repro.graph.sparse import scipy_available

pytestmark = pytest.mark.skipif(
    not scipy_available(), reason="native kernels operate on CSR arrays"
)

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="requires numba"
)
needs_no_numba = pytest.mark.skipif(
    numba_available(), reason="exercises the numba-absent degradation path"
)

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def native_backend():
    """A NativeBackend running the kernel bodies interpreted.

    ``jit=False`` keeps these tests meaningful without Numba — the
    bodies are identical to what ``@njit`` compiles, so interpreted
    parity is the correctness half of the proof; the ``jit``-marked
    tests add the compiled-equals-interpreted half.
    """
    from repro.engine.backends import NativeBackend

    return NativeBackend(jit=False)


def sparse_backend():
    from repro.engine import get_backend

    return get_backend("sparse")


def python_backend():
    from repro.engine import get_backend

    return get_backend("python")


def shrink(cd, graph, x, subset, tol):
    """Run the CSR coordinate-descent kernel *cd* from dict inputs.

    *cd* is ``coordinate_descent_csr`` (sparse) or the kernel set's
    ``coordinate_descent`` (native); returns a ``CDResult`` keyed by
    vertex so results compare with ``==``.
    """
    import numpy as np

    from repro.core.coordinate_descent import CDResult
    from repro.graph.sparse import CSRAdjacency

    adj = CSRAdjacency.from_graph(graph)
    members = np.array(sorted(adj.index[v] for v in subset), dtype=np.int64)
    vector, _, objective, iterations, converged = cd(
        adj, adj.embedding_vector(x), members, tol, need_dx=False
    )
    return CDResult(
        x=adj.embedding_dict(vector),
        objective=objective,
        iterations=iterations,
        converged=converged,
    )


def native_shrink(graph, x, subset, tol):
    return shrink(get_kernels(jit=False).coordinate_descent, graph, x, subset, tol)


def sparse_shrink(graph, x, subset, tol):
    from repro.core.sparse_solvers import coordinate_descent_csr

    return shrink(coordinate_descent_csr, graph, x, subset, tol)


def build_graph(
    n: int,
    density: float,
    seed: int,
    signed: bool = True,
    low: float = 0.05,
    high: float = 2.0,
) -> Graph:
    """Seeded G(n, p) with continuous weights (ties improbable)."""
    rng = random.Random(seed)
    graph = Graph()
    graph.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                weight = rng.uniform(low, high)
                if signed and rng.random() < 0.35:
                    weight = -weight
                graph.add_edge(u, v, weight)
    return graph


@st.composite
def graph_cases(draw, max_n=18, signed=True):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(min_value=0.05, max_value=0.7))
    seed = draw(st.integers(0, 10**6))
    return build_graph(n, density, seed, signed=signed)


def _objective(graph: Graph, x) -> float:
    total = 0.0
    for u, xu in x.items():
        for v, weight in graph.neighbors(u).items():
            xv = x.get(v)
            if xv is not None:
                total += xu * xv * weight
    return total


# ----------------------------------------------------------------------
# greedy peeling
# ----------------------------------------------------------------------
class TestPeelDifferential:
    @settings(**SETTINGS)
    @given(graph_cases())
    def test_peel_matches_sparse(self, graph):
        # Pop order and subset are exact; densities may differ in the
        # last bits because _peel_sparse reduces each removed row with
        # NumPy's pairwise `removed.sum()` while the kernel accumulates
        # sequentially (the one tolerated divergence in the parity
        # contract of repro.core.native_kernels).
        native = native_backend().peel(graph)
        sparse = sparse_backend().peel(graph)
        assert native.order == sparse.order
        assert native.subset == sparse.subset
        assert native.density == pytest.approx(sparse.density, rel=1e-12)
        assert len(native.densities) == len(sparse.densities)
        for a, b in zip(native.densities, sparse.densities):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @settings(**SETTINGS)
    @given(graph_cases(signed=False))
    def test_peel_matches_python_reference(self, graph):
        native = native_backend().peel(graph)
        python = python_backend().peel(graph)
        # Continuous weights: no ties, so the subsets agree; densities
        # agree up to summation order.
        assert native.subset == python.subset
        assert native.density == pytest.approx(python.density)

    def test_empty_graph_raises(self):
        from repro.core.sparse_solvers import SPARSE_KERNELS
        from repro.peeling.greedy import greedy_peel

        with pytest.raises(ValueError):
            greedy_peel(Graph(), backend=native_backend())
        with pytest.raises(ValueError):
            get_kernels(jit=False).peel(Graph())
        # The two kernel sets are drop-ins: same error, same message.
        with pytest.raises(ValueError, match="cannot peel an empty graph"):
            SPARSE_KERNELS.peel(Graph())

    def test_one_vertex_graph(self):
        graph = Graph()
        graph.add_vertex("only")
        result = native_backend().peel(graph)
        assert result.subset == {"only"}
        assert result.density == 0.0
        assert result.order == ["only"]
        assert result.densities == [0.0]

    def test_isolated_vertices(self):
        graph = build_graph(12, 0.4, seed=3, signed=False)
        graph.add_vertices(["iso1", "iso2", "iso3"])
        native = native_backend().peel(graph)
        sparse = sparse_backend().peel(graph)
        assert native.order == sparse.order
        assert native.subset == sparse.subset
        assert native.density == pytest.approx(sparse.density, rel=1e-12)
        assert not {"iso1", "iso2", "iso3"} & native.subset

    def test_all_equal_weights_tie_breaking(self):
        # Every weight identical: the peel is one long tie — the lazy
        # heap's (key, vertex) order must match heapq's exactly.
        graph = Graph()
        graph.add_vertices(range(10))
        rng = random.Random(5)
        for u in range(10):
            for v in range(u + 1, 10):
                if rng.random() < 0.5:
                    graph.add_edge(u, v, 1.0)
        native = native_backend().peel(graph)
        sparse = sparse_backend().peel(graph)
        assert native.order == sparse.order
        assert native.subset == sparse.subset
        assert native.densities == sparse.densities

    def test_negative_degrees(self):
        # Signed graphs: deleting a vertex can *raise* a neighbour's
        # degree; the lazy heap must tolerate both key directions.
        graph = build_graph(16, 0.5, seed=11, signed=True)
        native = native_backend().peel(graph)
        sparse = sparse_backend().peel(graph)
        assert native.order == sparse.order
        assert native.subset == sparse.subset
        for a, b in zip(native.densities, sparse.densities):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# 2-coordinate descent (shrink)
# ----------------------------------------------------------------------
class TestShrinkDifferential:
    @settings(**SETTINGS)
    @given(graph_cases(signed=False))
    def test_shrink_matches_sparse_bitwise(self, graph):
        subset = list(graph.vertices())
        x0 = {u: 1.0 / len(subset) for u in subset}
        native = native_shrink(graph, dict(x0), subset, tol=1e-9)
        sparse = sparse_shrink(graph, dict(x0), subset, tol=1e-9)
        assert native.x == sparse.x
        assert native.objective == sparse.objective
        assert native.iterations == sparse.iterations
        assert native.converged == sparse.converged

    def test_shrink_singleton_support(self):
        graph = build_graph(6, 0.6, seed=2, signed=False)
        native = native_shrink(graph, {0: 1.0}, [0], tol=1e-9)
        assert native.x == {0: 1.0}
        assert native.objective == 0.0
        assert native.converged

    def test_extreme_weight_magnitudes(self):
        rng = random.Random(17)
        graph = Graph()
        graph.add_vertices(range(12))
        for u in range(12):
            for v in range(u + 1, 12):
                if rng.random() < 0.5:
                    graph.add_edge(
                        u, v, rng.uniform(1.0, 9.0) * 10.0 ** rng.randint(-9, 9)
                    )
        subset = list(graph.vertices())
        x0 = {u: 1.0 / len(subset) for u in subset}
        native = native_shrink(graph, dict(x0), subset, tol=1e-9)
        sparse = sparse_shrink(graph, dict(x0), subset, tol=1e-9)
        assert native.x == sparse.x
        assert native.objective == sparse.objective

    def test_all_equal_weights(self):
        # A clique with equal weights: selection is all ties; argmax /
        # argmin replicas must pick the same (first) coordinates.
        graph = Graph()
        graph.add_vertices(range(8))
        for u in range(8):
            for v in range(u + 1, 8):
                graph.add_edge(u, v, 2.0)
        subset = list(range(8))
        x0 = {u: (1.0 if u == 0 else 0.0) for u in subset}
        x0 = {u: w for u, w in x0.items() if w > 0.0} or {0: 1.0}
        native = native_backend().seacd(graph, {0: 1.0})
        sparse = sparse_backend().seacd(graph, {0: 1.0})
        assert native.x == sparse.x
        assert native.objective == sparse.objective

    def test_cd_csr_path_matches_dense_path(self):
        # Force the CSR branch by dropping DENSE_SUPPORT_LIMIT: the two
        # code paths of the kernel must land on the same KKT point.
        import repro.core.native_kernels as nk
        import repro.core.sparse_solvers as ss

        graph = build_graph(30, 0.3, seed=23, signed=False)
        subset = list(graph.vertices())
        x0 = {u: 1.0 / len(subset) for u in subset}
        dense = native_shrink(graph, dict(x0), subset, tol=1e-9)
        original = ss.DENSE_SUPPORT_LIMIT
        ss.DENSE_SUPPORT_LIMIT = 2
        try:
            csr = native_shrink(graph, dict(x0), subset, tol=1e-9)
            sparse = sparse_shrink(graph, dict(x0), subset, tol=1e-9)
        finally:
            ss.DENSE_SUPPORT_LIMIT = original
        assert nk is not None
        assert csr.x == sparse.x
        assert csr.objective == sparse.objective
        assert set(csr.x) == set(dense.x)
        assert csr.objective == pytest.approx(dense.objective, rel=1e-9)


# ----------------------------------------------------------------------
# full solvers: NewSEA, expansion, replicator
# ----------------------------------------------------------------------
class TestSolverDifferential:
    @settings(**SETTINGS)
    @given(graph_cases())
    def test_new_sea_matches_sparse_bitwise(self, graph):
        from repro.core.kkt import check_kkt

        gd_plus = graph.positive_part()
        if gd_plus.num_vertices == 0:
            return
        native = new_sea(gd_plus, backend=native_backend())
        sparse = new_sea(gd_plus, backend=sparse_backend())
        assert native.support == sparse.support
        assert native.objective == sparse.objective
        assert native.x == sparse.x
        assert native.initializations == sparse.initializations
        assert native.expansion_errors == sparse.expansion_errors
        assert native.is_positive_clique == sparse.is_positive_clique
        if gd_plus.num_edges:
            assert check_kkt(gd_plus, native.x, tol=5e-3).is_kkt

    def test_new_sea_matches_python_reference(self):
        gd_plus = build_graph(30, 0.25, seed=31).positive_part()
        native = new_sea(gd_plus, backend=native_backend())
        python = new_sea(gd_plus, backend=python_backend())
        assert native.support == python.support
        assert native.objective == pytest.approx(python.objective, rel=1e-6)

    def test_one_vertex_graph(self):
        graph = Graph()
        graph.add_vertex("v")
        native = new_sea(graph, backend=native_backend())
        assert native.x == {"v": 1.0}
        assert native.objective == 0.0

    def test_edgeless_graph_fallback(self):
        graph = Graph()
        graph.add_vertices(["b", "a", "c"])
        native = new_sea(graph, backend=native_backend())
        sparse = new_sea(graph, backend=sparse_backend())
        assert native.x == sparse.x == {"a": 1.0}
        assert native.objective == 0.0

    def test_self_loops_rejected_at_graph_layer(self):
        # The kernels assume a zero diagonal; the Graph contract
        # guarantees it before any backend sees the input.
        graph = Graph()
        graph.add_vertex("v")
        with pytest.raises(SelfLoopError):
            graph.add_edge("v", "v", 1.0)

    def test_duplicate_edges_overwrite(self):
        # add_edge is last-write-wins; both backends must see the same
        # final weight, not an accumulated one.
        graph = Graph()
        graph.add_vertices(range(4))
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            graph.add_edge(u, v, 9.0)
            graph.add_edge(u, v, 1.5)  # overwrite
        native = new_sea(graph, backend=native_backend())
        sparse = new_sea(graph, backend=sparse_backend())
        python = new_sea(graph, backend=python_backend())
        assert native.x == sparse.x
        assert native.objective == sparse.objective
        assert native.support == python.support

    @settings(**SETTINGS)
    @given(graph_cases(signed=False, max_n=14))
    def test_expand_matches_python_reference(self, graph):
        if graph.num_edges == 0:
            return
        from repro.core.expansion import expansion_step
        from repro.core.sparse_solvers import expansion_step_csr
        from repro.graph.sparse import CSRAdjacency

        start = max(graph.vertices(), key=lambda u: graph.degree(u))
        adj = CSRAdjacency.from_graph(graph)
        vector = adj.embedding_vector({start: 1.0})
        dx = adj.matvec(vector)
        new_vector, _, objective_after, expanded, z_size = expansion_step_csr(
            adj, vector, dx, float(vector @ dx)
        )
        python = expansion_step(graph, {start: 1.0})
        assert expanded == python.expanded
        assert z_size == python.z_size
        assert set(adj.embedding_dict(new_vector)) == set(python.x)
        assert objective_after == pytest.approx(
            python.objective_after, rel=1e-9, abs=1e-12
        )

    @settings(**SETTINGS)
    @given(graph_cases(signed=False, max_n=14))
    def test_replicator_matches_sparse(self, graph):
        if graph.num_edges == 0:
            return
        x0 = {u: 1.0 / graph.num_vertices for u in graph.vertices()}
        native = native_backend().replicator(graph, dict(x0))
        sparse = sparse_backend().replicator(graph, dict(x0))
        assert native.iterations == sparse.iterations
        assert native.converged == sparse.converged
        assert set(native.x) == set(sparse.x)
        assert native.objective == pytest.approx(sparse.objective, rel=1e-9)

    def test_replicator_rejects_negative_weights(self):
        # A strong positive triangle keeps the objective positive while
        # the pendant's negative edge makes (Dx)_d < 0 — exactly the
        # state the lazy nonnegativity check (kernel status flag) must
        # surface as the same ValueError the sparse path raises.
        graph = Graph.from_edges(
            [
                ("a", "b", 10.0),
                ("b", "c", 10.0),
                ("a", "c", 10.0),
                ("c", "d", -1.0),
            ]
        )
        x0 = {u: 0.25 for u in graph.vertices()}
        with pytest.raises(ValueError, match="nonnegative"):
            native_backend().replicator(graph, dict(x0))
        with pytest.raises(ValueError, match="nonnegative"):
            sparse_backend().replicator(graph, dict(x0))


# ----------------------------------------------------------------------
# registry / fallback behaviour
# ----------------------------------------------------------------------
class TestRegistryIntegration:
    def test_native_is_registered_with_numba_alias(self):
        from repro.engine import backend_names, get_backend

        assert "native" in backend_names()
        assert "numba" in backend_names()
        assert get_backend("numba", require=False) is get_backend(
            "native", require=False
        )

    def test_capability_table(self):
        from repro.engine.registry import CAPABILITIES

        backend = native_backend()
        for capability in CAPABILITIES:
            assert backend.has_capability(capability), capability
        assert backend.supports_shared_adjacency

    @needs_no_numba
    def test_unavailable_without_numba(self):
        from repro.engine import get_backend, resolve_backend

        backend = get_backend("native", require=False)
        assert not backend.available()
        assert "Numba" in backend.missing_reason()
        with pytest.raises(BackendUnavailableError):
            get_backend("native")
        with pytest.raises(BackendUnavailableError):
            resolve_backend("native")

    @needs_no_numba
    def test_fallback_degrades_with_single_warning(self):
        from repro.engine import registry, resolve_backend

        registry._FALLBACK_WARNED.clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = resolve_backend("native", fallback="sparse")
                second = resolve_backend("native", fallback="sparse")
            assert first.name == "sparse"
            assert second.name == "sparse"
            fallback_warnings = [
                w
                for w in caught
                if issubclass(w.category, BackendFallbackWarning)
            ]
            assert len(fallback_warnings) == 1
            assert "native" in str(fallback_warnings[0].message)
        finally:
            registry._FALLBACK_WARNED.clear()

    def test_shared_adjacency_contract(self):
        from repro.exceptions import InputMismatchError
        from repro.graph.sparse import CSRAdjacency

        gd = build_graph(20, 0.3, seed=9)
        gd_plus = gd.positive_part()
        wrong = CSRAdjacency.from_graph(gd)
        with pytest.raises(InputMismatchError):
            new_sea(gd_plus, adjacency=wrong, backend=native_backend())
        right = CSRAdjacency.from_graph(gd_plus)
        shared = new_sea(
            gd_plus, adjacency=right, backend=native_backend()
        )
        rebuilt = new_sea(gd_plus, backend=native_backend())
        assert shared.x == rebuilt.x
        assert shared.objective == rebuilt.objective


# ----------------------------------------------------------------------
# kernel cache + batch warm-once regression
# ----------------------------------------------------------------------
class TestKernelCacheAndWarm:
    def test_kernel_set_is_cached_per_mode(self):
        first = get_kernels(jit=False)
        builds = kernel_build_count()
        second = get_kernels(jit=False)
        assert second is first
        assert kernel_build_count() == builds

    def test_warm_is_idempotent(self):
        kernels = warm_kernels(jit=False)
        assert kernels.warmed
        builds = kernel_build_count()
        again = warm_kernels(jit=False)
        assert again is kernels
        assert kernel_build_count() == builds

    def test_solves_do_not_rebuild_kernels(self):
        warm_kernels(jit=False)
        builds = kernel_build_count()
        graph = build_graph(15, 0.3, seed=41)
        backend = native_backend()
        for _ in range(3):
            new_sea(graph.positive_part(), backend=backend)
        assert kernel_build_count() == builds

    def test_batch_serial_warms_once_not_per_query(self):
        from repro.batch.executor import BatchExecutor
        from repro.batch.queries import BatchQuery, GraphSource
        from repro.engine.backends import NativeBackend
        from repro.engine.registry import register_backend, unregister_backend

        class CountingNative(NativeBackend):
            name = "counting_native"
            warm_calls = 0

            def __init__(self) -> None:
                super().__init__(jit=False)

            def warm(self) -> None:
                type(self).warm_calls += 1
                super().warm()

        register_backend(CountingNative())
        try:
            graphs = [
                build_graph(12, 0.4, seed=s, signed=True) for s in (1, 2, 3)
            ]
            queries = [
                BatchQuery(
                    kind="dcsga",
                    source=GraphSource.from_graph(g),
                    backend="counting_native",
                )
                for g in graphs
            ]
            executor = BatchExecutor(mode="serial")
            results = executor.run(queries)
            assert all(r.ok for r in results)
            # The warm-once regression: one pool/serial initialisation,
            # not one (JIT-compilation-sized) warm per query.
            assert CountingNative.warm_calls == 1
        finally:
            unregister_backend("counting_native")

    def test_batch_pooled_native_queries_succeed(self):
        # Pooled mode on the registered backends: the initargs plumbing
        # must pickle and the workers must produce the same payloads as
        # a serial run.  (Warm counters cannot cross the process
        # boundary; the serial test above pins the once-per-process
        # claim.)
        from repro.batch.executor import BatchExecutor
        from repro.batch.queries import BatchQuery, GraphSource

        graphs = [build_graph(12, 0.4, seed=s) for s in (1, 2)]
        queries = [
            BatchQuery(
                kind="dcsga",
                source=GraphSource.from_graph(g),
                backend="sparse",
            )
            for g in graphs
        ]
        pooled = BatchExecutor(mode="process", workers=2).run(list(queries))
        serial = BatchExecutor(mode="serial").run(list(queries))
        assert all(r.ok for r in pooled)
        assert [r.canonical_json() for r in pooled] == [
            r.canonical_json() for r in serial
        ]

    def test_batch_accepts_native_backend_name(self):
        # The query vocabulary must accept every registered backend —
        # 'native' included — even when it cannot run here; an unknown
        # name still fails fast.
        from repro.batch.queries import BatchQuery, GraphSource
        from repro.exceptions import InputMismatchError

        source = GraphSource.from_graph(build_graph(6, 0.5, seed=1))
        BatchQuery(kind="dcsga", source=source, backend="native")
        BatchQuery(kind="dcsga", source=source, backend="numba")
        with pytest.raises(InputMismatchError):
            BatchQuery(kind="dcsga", source=source, backend="nativ")


# ----------------------------------------------------------------------
# compiled-mode tests (run with -m jit on a numba-equipped interpreter)
# ----------------------------------------------------------------------
@needs_numba
@pytest.mark.jit
class TestCompiledKernels:
    def test_warm_compiles_once_and_is_idempotent(self):
        import time

        kernels = warm_kernels(jit=True)
        assert kernels.jit and kernels.warmed
        builds = kernel_build_count()
        start = time.perf_counter()
        warm_kernels(jit=True)
        assert time.perf_counter() - start < 0.5  # no recompilation
        assert kernel_build_count() == builds

    def test_compiled_matches_interpreted_bitwise(self):
        warm_kernels(jit=True)
        from repro.engine import get_backend
        from repro.engine.backends import NativeBackend

        compiled = get_backend("native")
        interpreted = NativeBackend(jit=False)
        for seed in (0, 1, 2):
            gd_plus = build_graph(40, 0.2, seed=seed).positive_part()
            a = new_sea(gd_plus, backend=compiled)
            b = new_sea(gd_plus, backend=interpreted)
            assert a.x == b.x
            assert a.objective == b.objective
            assert a.initializations == b.initializations
            pa = compiled.peel(gd_plus)
            pb = interpreted.peel(gd_plus)
            assert pa.order == pb.order
            assert pa.densities == pb.densities

    def test_compiled_solves_do_not_rebuild(self):
        warm_kernels(jit=True)
        builds = kernel_build_count()
        from repro.engine import get_backend

        backend = get_backend("native")
        for seed in (5, 6):
            new_sea(
                build_graph(25, 0.3, seed=seed).positive_part(),
                backend=backend,
            )
        assert kernel_build_count() == builds
