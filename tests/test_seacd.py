"""Tests for SEACD (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.core.kkt import check_kkt
from repro.core.seacd import seacd, seacd_from_vertex
from repro.exceptions import VertexNotFound
from repro.graph.generators import (
    complete_graph,
    planted_clique_graph,
    random_signed_graph,
)
from repro.graph.graph import Graph


class TestBasics:
    def test_empty_embedding_rejected(self, triangle):
        with pytest.raises(ValueError):
            seacd(triangle, {})

    def test_unknown_vertex_rejected(self, triangle):
        for backend in ("python", "sparse"):
            with pytest.raises(VertexNotFound):
                seacd_from_vertex(triangle, "ghost", backend=backend)

    def test_isolated_vertex_stays_put(self):
        graph = Graph.from_edges([("a", "b", 1.0)], vertices=["z"])
        result = seacd_from_vertex(graph, "z")
        assert result.converged
        assert result.x == {"z": 1.0}
        assert result.objective == 0.0

    def test_clique_reaches_motzkin_straus_optimum(self):
        """On K_k the optimum is (k-1)/k [Motzkin-Straus]."""
        for k in (3, 4, 6):
            graph = complete_graph(k)
            result = seacd_from_vertex(graph, 0)
            assert result.converged
            assert result.objective == pytest.approx((k - 1) / k, abs=1e-3)
            assert set(result.x) == set(range(k))

    def test_two_cliques_converges_to_one(self):
        """Disconnected optima: the run lands on the seed's clique."""
        graph = complete_graph(4)
        for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
            graph.add_edge(u, v, 1.0)
        result = seacd_from_vertex(graph, "x")
        assert set(result.x) == {"x", "y", "z"}
        assert result.objective == pytest.approx(2.0 / 3.0, abs=1e-3)


class TestKKTGuarantee:
    @pytest.mark.parametrize("seed", range(10))
    def test_converges_to_global_kkt(self, seed):
        """Theorem 4: SEACD converges to a KKT point (Eq. 7)."""
        gd_plus = random_signed_graph(25, 0.3, seed=seed).positive_part()
        start = sorted(gd_plus.vertices(), key=repr)[0]
        result = seacd_from_vertex(gd_plus, start)
        assert result.converged
        report = check_kkt(gd_plus, result.x, tol=1e-2)
        assert report.is_kkt, f"seed {seed}: gap={report.gap}"

    @pytest.mark.parametrize("seed", range(10))
    def test_no_expansion_errors_with_correct_condition(self, seed):
        """The paper's headline claim for SEACD: the strict gradient-gap
        shrink condition never produces expansion errors."""
        gd_plus = random_signed_graph(30, 0.3, seed=seed).positive_part()
        start = sorted(gd_plus.vertices(), key=repr)[0]
        result = seacd_from_vertex(gd_plus, start)
        assert result.stats.expansion_errors == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_trace_monotone(self, seed):
        """Across shrink checkpoints the objective never decreases."""
        gd_plus = random_signed_graph(20, 0.4, seed=seed).positive_part()
        start = sorted(gd_plus.vertices(), key=repr)[0]
        result = seacd_from_vertex(gd_plus, start)
        trace = result.stats.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_simplex_invariant(self):
        for seed in range(6):
            gd_plus = random_signed_graph(20, 0.4, seed=seed).positive_part()
            start = sorted(gd_plus.vertices(), key=repr)[0]
            result = seacd_from_vertex(gd_plus, start)
            assert sum(result.x.values()) == pytest.approx(1.0, abs=1e-8)
            assert all(v > 0 for v in result.x.values())


class TestRecovery:
    def test_planted_clique_affinity_reached(self):
        """Seeding inside a planted heavy clique recovers its affinity."""
        graph = planted_clique_graph(40, 6, 0.08, seed=2, clique_weight=4.0)
        result = seacd_from_vertex(graph, 0)
        # Uniform on the 6-clique: (5/6) * 4 = 10/3.
        assert result.objective >= 10.0 / 3.0 - 1e-2

    def test_max_expansions_cap(self):
        graph = complete_graph(8)
        result = seacd(graph, {0: 1.0}, max_expansions=0)
        assert not result.converged
