"""Tests for the unified solver engine (repro/engine/).

Covers the three tentpole pieces and their contracts:

* the backend registry — round-trips, aliasing, unknown-name and
  missing-dependency errors, graceful fallback, capability errors,
  custom backend plug-in through every solver entry point;
* ``PreparedGraph`` — build-exactly-once sharing (GD+, CSR,
  fingerprint), fingerprint stability under no-op rebuilds and
  sensitivity to relabelling, executor integration (a paired
  DCSAD+DCSGA batch prepares once);
* the ``SolveRequest``/``SolveResult`` envelope — golden payload
  layout, byte-identity across serial / pooled / cached batch modes,
  and the CLI ``--json`` face of the same envelope.

The refactor's structural guarantee — no ``if backend ==`` string
dispatch outside the registry seam — is enforced tree-wide by the
``REPRO-BACKEND-LADDER`` rule of ``repro lint`` (see
``tests/test_lintkit.py`` for the rule's own regression tests).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.batch import BatchExecutor, BatchQuery, GraphSource
from repro.core.dcsad import dcs_greedy
from repro.core.difference import difference_graph
from repro.core.newsea import new_sea
from repro.engine import (
    PreparedGraph,
    SolveRequest,
    SolverBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
    solve,
    unregister_backend,
)
from repro.engine.registry import CAPABILITIES
from repro.exceptions import (
    BackendCapabilityError,
    BackendUnavailableError,
    InputMismatchError,
    UnknownBackendError,
)
from repro.graph.graph import Graph
from repro.graph.sparse import scipy_available

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires SciPy"
)

@pytest.fixture
def pair():
    g1 = Graph.from_edges([("a", "b", 1.0), ("d", "e", 4.0)], vertices="c")
    g2 = Graph.from_edges(
        [("a", "b", 3.0), ("b", "c", 2.0), ("a", "c", 2.5), ("d", "e", 1.0)]
    )
    return g1, g2


@pytest.fixture
def gd(pair):
    return difference_graph(*pair, require_same_vertices=False)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for name in ("python", "heap", "segment_tree", "sparse"):
            assert name in names

    def test_unknown_name_is_clear_error(self):
        with pytest.raises(UnknownBackendError) as info:
            get_backend("no-such-backend")
        assert "no-such-backend" in str(info.value)
        assert "python" in str(info.value)  # names the known backends
        assert isinstance(info.value, ValueError)  # legacy catch works

    def test_register_round_trip(self):
        class Toy(SolverBackend):
            name = "toy-round-trip"

        backend = Toy()
        register_backend(backend, aliases=("toy-alias",))
        try:
            assert get_backend("toy-round-trip") is backend
            assert get_backend("toy-alias") is backend
            assert resolve_backend("toy-round-trip") is backend
            assert resolve_backend(backend) is backend  # instances pass through
        finally:
            unregister_backend("toy-round-trip")
            unregister_backend("toy-alias")
        with pytest.raises(UnknownBackendError):
            get_backend("toy-round-trip")

    def test_duplicate_registration_is_loud(self):
        class Shadow(SolverBackend):
            name = "python"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Shadow())

    def test_replace_allows_shadowing_and_restore(self):
        original = get_backend("segment_tree", require=False)

        class Shadow(SolverBackend):
            name = "segment_tree"

        shadow = Shadow()
        register_backend(shadow, replace=True)
        try:
            assert get_backend("segment_tree") is shadow
        finally:
            register_backend(original, replace=True)
        assert get_backend("segment_tree") is original

    def test_nameless_backend_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_backend(SolverBackend())

    def test_capability_error_names_backend_and_capability(self, gd):
        with pytest.raises(BackendCapabilityError) as info:
            get_backend("segment_tree").seacd(gd, {"a": 1.0})
        assert "segment_tree" in str(info.value)
        assert "seacd" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_heap_is_alias_of_python(self):
        assert get_backend("heap") is get_backend("python")

    def test_has_and_require_capabilities(self):
        python = get_backend("python")
        tree = get_backend("segment_tree")
        assert python.has_capability("vertex_solver")
        assert tree.has_capability("peel")
        assert not tree.has_capability("vertex_solver")
        python.require_capabilities(
            "peel", "initialization_plan", "vertex_solver", "mean_graph"
        )
        with pytest.raises(BackendCapabilityError):
            tree.require_capabilities("peel", "vertex_solver")

    def test_long_lived_consumers_fail_fast_on_incapable_backends(self):
        # Monitor and streaming engine must reject a solver-incapable
        # backend at construction, not steps into a stream.
        from repro.core.monitor import ContrastMonitor
        from repro.stream.engine import StreamingDCSEngine

        with pytest.raises(BackendCapabilityError):
            ContrastMonitor(window=2, backend="segment_tree")
        with pytest.raises(BackendCapabilityError):
            StreamingDCSEngine(["a", "b"], measure="affinity",
                               backend="segment_tree")


class TestShrinkExpandCapabilities:
    """The coordinate-descent stages SEACD runs, called directly."""

    @pytest.fixture
    def plus(self, gd):
        return gd.positive_part()

    def test_python_shrink_reaches_local_kkt(self, plus):
        from repro.core.coordinate_descent import coordinate_descent
        from repro.core.kkt import check_kkt

        start = {"a": 0.9, "b": 0.05, "c": 0.05}
        result = coordinate_descent(
            plus, start, subset={"a", "b", "c"}, tol=1e-9
        )
        assert result.converged
        report = check_kkt(plus, result.x, subset={"a", "b", "c"}, tol=1e-6)
        assert report.is_kkt

    def test_python_expand_grows_support(self, plus):
        from repro.core.expansion import expansion_step

        step = expansion_step(plus, {"a": 0.5, "b": 0.5})
        assert step.expanded
        assert step.objective_after >= 0.0

    @needs_scipy
    def test_sparse_shrink_matches_python(self, plus):
        import numpy as np

        from repro.core.coordinate_descent import coordinate_descent
        from repro.core.sparse_solvers import _Rows, coordinate_descent_csr
        from repro.graph.sparse import CSRAdjacency

        start = {"a": 0.9, "b": 0.05, "c": 0.05}
        python = coordinate_descent(
            plus, dict(start), subset={"a", "b", "c"}, tol=1e-9
        )
        adj = CSRAdjacency.from_graph(plus)
        members = np.array(sorted(adj.index[v] for v in "abc"))
        vector = adj.embedding_vector(start)
        vector[members], objective, _, converged = coordinate_descent_csr(
            vector[members], _Rows(adj, members).block(), tol=1e-9
        )
        assert converged == python.converged
        assert objective == pytest.approx(python.objective)
        assert set(adj.embedding_dict(vector)) == set(python.x)


class TestAvailabilityFallback:
    """The SciPy-absent path: loud by default, graceful on request."""

    @pytest.fixture
    def sparse_unavailable(self, monkeypatch):
        from repro.engine.backends import SparseBackend

        monkeypatch.setattr(SparseBackend, "available", lambda self: False)

    def test_unavailable_backend_raises_at_lookup(self, sparse_unavailable):
        with pytest.raises(BackendUnavailableError, match="SciPy"):
            get_backend("sparse")

    def test_unavailable_solve_raises_not_crashes(self, sparse_unavailable, gd):
        with pytest.raises(BackendUnavailableError):
            dcs_greedy(gd, backend="sparse")
        with pytest.raises(BackendUnavailableError):
            new_sea(gd.positive_part(), backend="sparse")

    def test_resolve_with_fallback_degrades(self, sparse_unavailable):
        import warnings

        from repro.engine import registry
        from repro.exceptions import BackendFallbackWarning

        registry._FALLBACK_WARNED.discard(("sparse", "python"))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert resolve_backend(
                    "sparse", fallback="python"
                ) is get_backend("python")
            assert any(
                issubclass(w.category, BackendFallbackWarning)
                for w in caught
            )
        finally:
            registry._FALLBACK_WARNED.discard(("sparse", "python"))

    def test_fallback_never_hides_typos(self, sparse_unavailable):
        with pytest.raises(UnknownBackendError):
            resolve_backend("sparce", fallback="python")

    def test_lookup_without_require_still_returns(self, sparse_unavailable):
        assert get_backend("sparse", require=False).name == "sparse"


class TestCustomBackendPlugsInEverywhere:
    def test_counting_backend_through_all_layers(self, pair, gd):
        calls = []

        class Counting(SolverBackend):
            name = "test-counting"

            def peel(self, graph, adjacency=None):
                calls.append("peel")
                return get_backend("python").peel(graph, adjacency=adjacency)

            def initialization_plan(self, gd_plus, adjacency=None):
                calls.append("initialization_plan")
                return get_backend("python").initialization_plan(gd_plus)

            def vertex_solver(self, gd_plus, **kwargs):
                calls.append("vertex_solver")
                return get_backend("python").vertex_solver(gd_plus, **kwargs)

            def mean_graph(self, graphs):
                calls.append("mean_graph")
                return get_backend("python").mean_graph(graphs)

        register_backend(Counting())
        try:
            # core solvers
            ad = dcs_greedy(gd, backend="test-counting")
            ga = new_sea(gd.positive_part(), backend="test-counting")
            assert ad.subset == {"a", "b", "c"}
            assert ga.support == {"a", "b", "c"}
            # the envelope layer
            report = solve(
                SolveRequest(
                    measure="average_degree", backend="test-counting"
                ),
                PreparedGraph(gd),
            )
            assert report.provenance["backend"] == "test-counting"
            # the monitor layer
            from repro.core.monitor import mean_graph

            mean_graph([gd], backend="test-counting")
            assert calls.count("mean_graph") == 1
            assert calls.count("initialization_plan") == 1
            assert calls.count("vertex_solver") == 1
            assert calls.count("peel") >= 2
        finally:
            unregister_backend("test-counting")

    def test_adjacency_rejected_on_non_csr_backend(self, gd):
        class NoCSR(SolverBackend):
            name = "test-nocsr"

            def initialization_plan(self, gd_plus, adjacency=None):
                return get_backend("python").initialization_plan(gd_plus)

            def vertex_solver(self, gd_plus, **kwargs):
                return get_backend("python").vertex_solver(gd_plus, **kwargs)

        register_backend(NoCSR())
        try:
            sentinel = object()
            with pytest.raises(InputMismatchError, match="CSR-capable"):
                new_sea(
                    gd.positive_part(),
                    backend="test-nocsr",
                    adjacency=sentinel,
                )
        finally:
            unregister_backend("test-nocsr")

    def test_plan_and_vertex_solver_are_enough_for_dcsga(self, gd):
        # NewSEA is not a capability: new_sea walks any backend's
        # plan with its per-vertex solver, in the library call and in
        # the envelope alike.
        class TwoParts(SolverBackend):
            name = "test-two-parts"

            def initialization_plan(self, gd_plus, adjacency=None):
                return get_backend("python").initialization_plan(gd_plus)

            def vertex_solver(self, gd_plus, **kwargs):
                return get_backend("python").vertex_solver(gd_plus, **kwargs)

        assert "new_sea" not in CAPABILITIES
        register_backend(TwoParts())
        try:
            reference = new_sea(gd.positive_part())
            ga = new_sea(gd.positive_part(), backend="test-two-parts")
            assert ga == reference
            report = solve(
                SolveRequest(measure="affinity", backend="test-two-parts"),
                PreparedGraph(gd),
            )
            assert report.subset == frozenset({"a", "b", "c"})
            assert report.density == reference.objective
        finally:
            unregister_backend("test-two-parts")


# ----------------------------------------------------------------------
# PreparedGraph
# ----------------------------------------------------------------------
class TestPreparedGraph:
    def test_gd_plus_built_exactly_once(self, gd):
        prepared = PreparedGraph(gd)
        assert prepared.plus_builds == 0  # lazy
        first = prepared.gd_plus
        second = prepared.gd_plus
        assert first is second
        assert prepared.plus_builds == 1
        assert all(w > 0 for _, _, w in first.edges())

    @needs_scipy
    def test_csr_built_exactly_once_per_graph(self, gd):
        prepared = PreparedGraph(gd)
        assert prepared.csr() is prepared.csr()
        assert prepared.csr_plus() is prepared.csr_plus()
        assert prepared.csr_builds == 2  # one for GD, one for GD+
        assert prepared.csr().n == gd.num_vertices

    @needs_scipy
    def test_require_csr_returns_positive_part_adjacency(self, gd):
        prepared = PreparedGraph(gd)
        adj = prepared.require_csr()
        assert adj is prepared.csr_plus()
        assert (adj.data > 0).all()

    def test_csr_degrades_to_none_without_scipy(self, gd, monkeypatch):
        from repro.graph import sparse as sparse_module

        monkeypatch.setattr(sparse_module, "scipy_available", lambda: False)
        prepared = PreparedGraph(gd)
        assert prepared.csr() is None
        assert prepared.csr_plus() is None
        assert prepared.csr_builds == 0

    def test_fingerprint_lazy_and_cached(self, gd):
        prepared = PreparedGraph(gd)
        assert prepared.cached_fingerprint is None
        value = prepared.fingerprint
        assert prepared.cached_fingerprint == value
        assert prepared.fingerprint_builds == 1
        assert prepared.fingerprint == value  # no re-hash
        assert prepared.fingerprint_builds == 1

    def test_fingerprint_stable_under_noop_rebuild(self, gd):
        # Same content, different construction order -> same identity.
        rebuilt = Graph()
        for vertex in sorted(gd.vertices(), key=repr, reverse=True):
            rebuilt.add_vertex(vertex)
        for u, v, w in sorted(gd.edges(), key=repr, reverse=True):
            rebuilt.add_edge(u, v, w)
        assert PreparedGraph(gd).fingerprint == PreparedGraph(rebuilt).fingerprint

    def test_fingerprint_changes_under_vertex_relabel(self, gd):
        relabeled = Graph()
        mapping = {v: f"{v}x" for v in gd.vertices()}
        relabeled.add_vertices(mapping.values())
        for u, v, w in gd.edges():
            relabeled.add_edge(mapping[u], mapping[v], w)
        assert (
            PreparedGraph(gd).fingerprint
            != PreparedGraph(relabeled).fingerprint
        )

    def test_fingerprint_changes_with_weights(self, gd):
        heavier = gd.copy()
        u, v, w = next(iter(gd.edges()))
        heavier.add_edge(u, v, w + 1.0)
        assert PreparedGraph(gd).fingerprint != PreparedGraph(heavier).fingerprint

    def test_explicit_fingerprint_is_trusted(self, gd):
        prepared = PreparedGraph(gd, fingerprint="abc123")
        assert prepared.fingerprint == "abc123"
        assert prepared.fingerprint_builds == 0

    def test_check_owns_rejects_foreign_graph(self, gd):
        prepared = PreparedGraph(gd)
        prepared.check_owns(gd)
        prepared.check_owns(prepared.gd_plus)
        with pytest.raises(InputMismatchError):
            prepared.check_owns(gd.copy())

    def test_dcs_greedy_rejects_foreign_prepared(self, gd):
        with pytest.raises(InputMismatchError):
            dcs_greedy(gd, prepared=PreparedGraph(gd.copy()))

    def test_from_pair_assembles_difference(self, pair, gd):
        prepared = PreparedGraph.from_pair(*pair)
        assert prepared.fingerprint == PreparedGraph(gd).fingerprint


class TestPairedPreparationSharing:
    """The acceptance bar: DCSAD+DCSGA on one graph prepares once."""

    def test_python_pair_builds_gd_plus_once(self, gd, monkeypatch):
        builds = []
        original = Graph.positive_part

        def counting(self):
            builds.append(self.num_vertices)
            return original(self)

        monkeypatch.setattr(Graph, "positive_part", counting)
        source = GraphSource.from_graph(gd)
        results = BatchExecutor().run(
            [
                BatchQuery(kind="dcsad", source=source, qid="ad"),
                BatchQuery(kind="dcsga", source=source, qid="ga"),
            ]
        )
        assert [r.status for r in results] == ["ok", "ok"]
        assert len(builds) == 1

    @needs_scipy
    def test_sparse_pair_freezes_each_csr_once(self, gd, monkeypatch):
        from repro.graph.sparse import CSRAdjacency

        plus_builds = []
        original_plus = Graph.positive_part

        def counting_plus(self):
            plus_builds.append(self.num_vertices)
            return original_plus(self)

        csr_builds = []
        original_csr = CSRAdjacency.from_graph.__func__

        def counting_csr(cls, graph):
            csr_builds.append(graph.num_vertices)
            return original_csr(cls, graph)

        monkeypatch.setattr(Graph, "positive_part", counting_plus)
        monkeypatch.setattr(
            CSRAdjacency, "from_graph", classmethod(counting_csr)
        )
        source = GraphSource.from_graph(gd)
        results = BatchExecutor().run(
            [
                BatchQuery(
                    kind="dcsad", source=source, qid="ad", backend="sparse"
                ),
                BatchQuery(
                    kind="dcsga", source=source, qid="ga", backend="sparse"
                ),
                BatchQuery(
                    kind="dcsga",
                    source=source,
                    qid="ga3",
                    backend="sparse",
                    k=3,
                ),
            ]
        )
        assert [r.status for r in results] == ["ok"] * 3
        # GD+ walked once; exactly two CSR freezes (GD and GD+), shared
        # by the DCSAD peels and every DCSGA initialisation.
        assert len(plus_builds) == 1
        assert len(csr_builds) == 2

    def test_direct_shared_prepared_context(self, gd):
        prepared = PreparedGraph(gd)
        ad = dcs_greedy(gd, prepared=prepared)
        ga = new_sea(prepared.gd_plus)
        assert prepared.plus_builds == 1
        assert ad.subset == ga.support == {"a", "b", "c"}

    @needs_scipy
    def test_csr_of_follows_the_graph_passed(self, gd):
        prepared = PreparedGraph(gd)
        assert prepared.csr_of(gd) is prepared.csr()
        assert prepared.csr_of(prepared.gd_plus) is prepared.csr_plus()
        with pytest.raises(InputMismatchError):
            prepared.csr_of(gd.copy())

    @needs_scipy
    def test_sparse_dcs_greedy_accepts_gd_plus_pairing(self, gd):
        # check_owns sanctions calling dcs_greedy on prepared.gd_plus;
        # the peels must then pair with the GD+ adjacency, not GD's.
        assert any(w < 0 for _, _, w in gd.edges())  # mispairing would throw
        prepared = PreparedGraph(gd)
        via_plus = dcs_greedy(
            prepared.gd_plus, backend="sparse", prepared=prepared
        )
        direct = dcs_greedy(gd.positive_part(), backend="sparse")
        assert via_plus.subset == direct.subset
        assert via_plus.density == pytest.approx(direct.density)


# ----------------------------------------------------------------------
# the typed envelope
# ----------------------------------------------------------------------
class TestSolveRequest:
    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            SolveRequest(measure="vibes")

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            SolveRequest(measure="affinity", k=0)

    def test_kind_mapping_round_trips(self):
        request = SolveRequest.from_params(
            "dcsga", {"backend": "python", "k": 2, "tol_scale": 0.5}
        )
        assert request.measure == "affinity"
        assert request.kind == "dcsga"
        assert request.k == 2
        assert request.tol_scale == 0.5
        with pytest.raises(ValueError):
            SolveRequest.from_params("nope", {})

    def test_params_canonical_shape(self):
        params = SolveRequest(measure="average_degree").params()
        assert params == {
            "kind": "dcsad",
            "backend": "python",
            "k": 1,
            "tol_scale": 1e-2,
            "strategy": "vertices",
        }
        assert "strategy" not in SolveRequest(measure="affinity").params()


class TestEnvelopeGolden:
    """Golden layout of the one envelope every layer emits."""

    def test_dcsad_payload_golden(self, gd):
        report = solve(
            SolveRequest(measure="average_degree"), PreparedGraph(gd)
        )
        assert report.payload() == {
            "kind": "dcsad",
            "measure": "average_degree",
            "params": {
                "kind": "dcsad",
                "backend": "python",
                "k": 1,
                "tol_scale": 0.01,
                "strategy": "vertices",
            },
            "vertices": ["a", "b", "c"],
            "density": 13.0 / 3.0,
            "beta": 2.0,
            "kkt": None,
            "detail": {
                "winner": "greedy_gd",
                "connected": True,
                "candidate_densities": {
                    "max_edge": 2.5,
                    "greedy_gd": 13.0 / 3.0,
                    "greedy_gd_plus": 13.0 / 3.0,
                },
            },
        }
        assert report.canonical_json() == json.dumps(
            report.payload(), sort_keys=True
        )

    def test_dcsga_payload_carries_kkt_and_embedding(self, gd):
        report = solve(SolveRequest(measure="affinity"), PreparedGraph(gd))
        payload = report.payload()
        assert payload["kind"] == "dcsga"
        assert payload["vertices"] == ["a", "b", "c"]
        assert payload["kkt"] == {
            "is_kkt_point": True,
            "is_positive_clique": True,
        }
        assert payload["beta"] is None
        assert set(payload["detail"]["embedding"]) == {"a", "b", "c"}
        assert payload["density"] == pytest.approx(report.density)
        assert sum(payload["detail"]["embedding"].values()) == pytest.approx(1.0)

    def test_top_k_payloads_rank_results(self, gd):
        report = solve(
            SolveRequest(measure="average_degree", k=2), PreparedGraph(gd)
        )
        results = report.payload()["detail"]["results"]
        assert [item["rank"] for item in results] == list(range(len(results)))
        assert report.payload()["vertices"] == results[0]["vertices"]
        assert report.payload()["density"] == results[0]["density"]

    def test_record_adds_timings_and_provenance(self, gd):
        prepared = PreparedGraph(gd)
        prepared.fingerprint  # pay for identity -> provenance carries it
        report = solve(SolveRequest(measure="average_degree"), prepared)
        record = report.to_record()
        assert record["provenance"]["backend"] == "python"
        assert record["provenance"]["fingerprint"] == prepared.fingerprint
        assert record["timings"]["solve_seconds"] >= 0.0
        # ...but the canonical answer excludes both.
        assert "timings" not in report.payload()
        assert "provenance" not in report.payload()

    def test_hot_path_skips_kkt_and_fingerprint(self, gd):
        prepared = PreparedGraph(gd)
        report = solve(
            SolveRequest(measure="affinity", check_kkt=False), prepared
        )
        assert report.kkt is None
        assert "fingerprint" not in report.provenance
        assert prepared.fingerprint_builds == 0

    @needs_scipy
    def test_backends_agree_byte_for_byte_on_support(self, gd):
        python = solve(SolveRequest(measure="affinity"), PreparedGraph(gd))
        sparse = solve(
            SolveRequest(measure="affinity", backend="sparse"),
            PreparedGraph(gd),
        )
        assert python.vertices == sparse.vertices
        assert sparse.density == pytest.approx(python.density)


class TestEnvelopeAcrossBatchModes:
    """Byte-identical canonical JSON: serial vs pooled vs cached."""

    def queries(self, pair):
        source = GraphSource.from_pair(*pair)
        return [
            BatchQuery(kind="dcsad", source=source, qid="ad"),
            BatchQuery(kind="dcsad", source=source, qid="adk", k=2),
            BatchQuery(kind="dcsga", source=source, qid="ga"),
            BatchQuery(kind="dcsga", source=source, qid="gak", k=2),
        ]

    def test_serial_pooled_cached_identical(self, pair, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = BatchExecutor().run(self.queries(pair))
        pooler = BatchExecutor(workers=2)
        pooled = pooler.run(self.queries(pair))
        assert pooler.stats.mode == "process"
        executor = BatchExecutor()
        executor.run(self.queries(pair))
        cached = executor.run(self.queries(pair))
        assert all(r.cached for r in cached)
        golden = [r.canonical_json() for r in serial]
        assert [r.canonical_json() for r in pooled] == golden
        assert [r.canonical_json() for r in cached] == golden

    def test_batch_payload_is_the_envelope_payload(self, pair, gd):
        (result,) = BatchExecutor().run(
            [BatchQuery(kind="dcsga", source=GraphSource.from_pair(*pair))]
        )
        direct = solve(SolveRequest(measure="affinity"), PreparedGraph(gd))
        assert result.payload == direct.payload()


class TestCLIJsonEnvelope:
    @pytest.fixture
    def pair_files(self, tmp_path, pair):
        from repro.graph.io import write_edge_list

        p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        write_edge_list(pair[0], p1)
        write_edge_list(pair[1], p2)
        return str(p1), str(p2)

    def test_dcsad_json_flag_prints_envelope(self, pair_files, capsys, gd):
        from repro.cli import main

        assert main(["dcsad", "--json", *pair_files]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "dcsad"
        assert record["vertices"] == ["a", "b", "c"]
        assert record["provenance"]["backend"] == "python"
        assert record["provenance"]["fingerprint"] == PreparedGraph(
            gd
        ).fingerprint
        assert record["timings"]["solve_seconds"] >= 0.0

    def test_dcsga_json_flag_prints_envelope(self, pair_files, capsys):
        from repro.cli import main

        assert main(["dcsga", "--json", "--top-k", "2", *pair_files]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "dcsga"
        assert record["detail"]["results"][0]["vertices"] == ["a", "b", "c"]

    def test_unknown_backend_exits_cleanly(self, pair_files):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown backend"):
            main(["dcsad", "--backend", "vibes", *pair_files])
