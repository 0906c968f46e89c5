"""Tests for NewSEA (Algorithm 5) and the all-initializations driver."""

from __future__ import annotations

import pytest

from repro.core.exact import exact_dcsga
from repro.core.newsea import new_sea, solve_all_initializations
from repro.core.topk import top_k_dcsga
from repro.exceptions import InputMismatchError
from repro.graph.cliques import is_clique, is_positive_clique
from repro.graph.generators import complete_graph, random_signed_graph
from repro.graph.graph import Graph
from repro.graph.sparse import CSRAdjacency


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            new_sea(Graph())

    @pytest.mark.parametrize(
        "backend,shared",
        [("python", False), ("sparse", False), ("sparse", True)],
        ids=["python", "sparse", "sparse-shared"],
    )
    def test_signed_input_rejected(self, signed_graph, backend, shared):
        # python scans the dict graph; sparse checks the CSR freeze, its
        # own or the caller's shared adjacency of the same signed graph.
        adjacency = CSRAdjacency.from_graph(signed_graph) if shared else None
        with pytest.raises(InputMismatchError, match="positive"):
            new_sea(signed_graph, backend=backend, adjacency=adjacency)

    @pytest.mark.parametrize("backend", ["python", "sparse"])
    def test_all_inits_entry_points_reject_signed_input(self, backend):
        signed = Graph.from_edges(
            [("a", "b", 3.0), ("b", "c", -5.0), ("a", "c", 2.0), ("c", "d", 1.0)]
        )
        with pytest.raises(InputMismatchError, match="positive_part"):
            solve_all_initializations(signed, backend=backend)
        with pytest.raises(InputMismatchError, match="positive_part"):
            top_k_dcsga(signed, 2, backend=backend)

    def test_edgeless_graph_returns_single_vertex(self):
        graph = Graph()
        graph.add_vertices("abc")
        result = new_sea(graph)
        assert len(result.support) == 1
        assert result.objective == 0.0
        assert result.is_positive_clique


class TestQuality:
    def test_clique_optimum(self):
        result = new_sea(complete_graph(5))
        assert result.objective == pytest.approx(0.8, abs=1e-3)
        assert result.support == set(range(5))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exact_oracle_on_small_graphs(self, seed):
        """NewSEA is a heuristic, but on small random graphs it reaches
        the global optimum essentially always; keep a small slack so the
        test documents quality without being flaky."""
        gd = random_signed_graph(10, 0.5, seed=seed)
        optimum = exact_dcsga(gd).objective
        result = new_sea(gd.positive_part())
        assert result.objective <= optimum + 1e-6
        assert result.objective >= 0.95 * optimum - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_always_positive_clique(self, seed):
        gd = random_signed_graph(20, 0.3, seed=seed)
        result = new_sea(gd.positive_part())
        assert result.is_positive_clique
        assert is_positive_clique(gd, result.support)

    @pytest.mark.parametrize("seed", range(10))
    def test_smart_init_matches_all_inits_quality(self, seed):
        """Paper, Section V-D: the heuristic 'never impairs the quality
        of the final solution compared to trying all vertices'."""
        gd_plus = random_signed_graph(18, 0.35, seed=seed).positive_part()
        smart = new_sea(gd_plus)
        full = solve_all_initializations(gd_plus)
        assert smart.objective == pytest.approx(
            full.best.objective, abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_smart_init_uses_fewer_initializations(self, seed):
        gd_plus = random_signed_graph(30, 0.25, seed=seed).positive_part()
        smart = new_sea(gd_plus)
        assert smart.initializations <= gd_plus.num_vertices
        # On these graphs the bound prunes a decent share of the work.
        assert smart.initializations < gd_plus.num_vertices or (
            smart.pruned_at_bound is None
        )


class TestAllInits:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            solve_all_initializations(Graph())

    def test_solutions_sorted_and_deduplicated(self):
        gd_plus = random_signed_graph(20, 0.35, seed=2).positive_part()
        result = solve_all_initializations(gd_plus)
        objectives = [obj for _, _, obj in result.solutions]
        assert objectives == sorted(objectives, reverse=True)
        supports = [frozenset(s) for s, _, _ in result.solutions]
        assert len(supports) == len(set(supports))

    def test_all_solutions_are_cliques(self):
        gd_plus = random_signed_graph(20, 0.35, seed=3).positive_part()
        result = solve_all_initializations(gd_plus)
        for support, x, objective in result.solutions:
            assert is_clique(gd_plus, support)
            assert set(x) == support
            assert objective >= 0.0

    def test_subsumed_dropped_by_default(self):
        gd_plus = random_signed_graph(20, 0.35, seed=4).positive_part()
        kept = solve_all_initializations(gd_plus).solutions
        supports = [s for s, _, _ in kept]
        for i, a in enumerate(supports):
            for j, b in enumerate(supports):
                if i != j:
                    assert not a < b

    def test_keep_subsumed_option(self):
        gd_plus = random_signed_graph(20, 0.35, seed=4).positive_part()
        with_drop = solve_all_initializations(gd_plus, drop_subsumed=True)
        without = solve_all_initializations(gd_plus, drop_subsumed=False)
        assert len(without.solutions) >= len(with_drop.solutions)

    def test_restricted_vertex_pool(self):
        gd_plus = random_signed_graph(15, 0.4, seed=5).positive_part()
        pool = sorted(gd_plus.vertices(), key=repr)[:4]
        result = solve_all_initializations(gd_plus, vertices=pool)
        assert result.initializations == 4

    def test_best_agrees_with_top_solution(self):
        gd_plus = random_signed_graph(15, 0.4, seed=6).positive_part()
        result = solve_all_initializations(gd_plus)
        top_support, _, top_objective = result.solutions[0]
        assert result.best.objective == pytest.approx(top_objective)
        assert result.best.support == set(top_support)
