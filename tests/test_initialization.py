"""Tests for the smart initialisation heuristic (Theorem 6)."""

from __future__ import annotations

import pytest

from repro.core.exact import exact_dcsga
from repro.core.initialization import (
    clique_affinity_upper_bound,
    ego_max_weights,
    smart_initialization_plan,
)
from repro.graph.cliques import maximal_cliques
from repro.graph.generators import complete_graph, random_signed_graph, star_graph
from repro.graph.graph import Graph


class TestEgoMaxWeights:
    def test_uniform_clique(self):
        weights = ego_max_weights(complete_graph(4, weight=2.0))
        assert all(w == 2.0 for w in weights.values())

    def test_isolated_vertex_zero(self):
        graph = Graph.from_edges([("a", "b", 1.0)], vertices=["z"])
        assert ego_max_weights(graph)["z"] == 0.0

    def test_sees_neighbors_incident_edges(self):
        """w_u covers edges with one endpoint in T_u, not only u's own."""
        graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 9.0)])
        weights = ego_max_weights(graph)
        # c is not a's neighbour, but (b, c) has an endpoint in T_a.
        assert weights["a"] == 9.0

    def test_dominates_ego_net_max_edge(self):
        for seed in range(6):
            graph = random_signed_graph(20, 0.3, seed=seed).positive_part()
            weights = ego_max_weights(graph)
            for u in graph.vertices():
                ego = {u, *graph.neighbors(u)}
                best = 0.0
                for a in ego:
                    for b, w in graph.neighbors(a).items():
                        if b in ego:
                            best = max(best, w)
                assert weights[u] >= best - 1e-12


class TestBound:
    def test_formula(self):
        assert clique_affinity_upper_bound(3, 2.0) == pytest.approx(1.5)
        assert clique_affinity_upper_bound(0, 5.0) == 0.0
        assert clique_affinity_upper_bound(4, 0.0) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_mu_bounds_clique_affinity_through_vertex(self, seed):
        """Theorem 6: any clique-supported embedding containing u has
        affinity at most mu_u.  Verified against per-clique optima."""
        from repro.core.exact import clique_interior_optimum

        gd_plus = random_signed_graph(14, 0.4, seed=seed).positive_part()
        plan = smart_initialization_plan(gd_plus)
        for clique in maximal_cliques(gd_plus):
            candidate = clique_interior_optimum(gd_plus, list(clique))
            if candidate is None:
                continue
            _, value = candidate
            for u in clique:
                assert value <= plan.mu[u] + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_max_mu_bounds_global_optimum(self, seed):
        """The largest mu upper-bounds the exact DCSGA optimum."""
        gd = random_signed_graph(12, 0.5, seed=seed)
        gd_plus = gd.positive_part()
        plan = smart_initialization_plan(gd_plus)
        optimum = exact_dcsga(gd).objective
        top = max(plan.mu.values(), default=0.0)
        assert optimum <= top + 1e-9


class TestPlan:
    def test_order_sorted_by_mu(self):
        graph = random_signed_graph(25, 0.3, seed=3).positive_part()
        plan = smart_initialization_plan(graph)
        mus = [plan.mu[u] for u in plan.order]
        assert mus == sorted(mus, reverse=True)

    def test_plan_covers_all_vertices(self):
        graph = random_signed_graph(25, 0.3, seed=4).positive_part()
        plan = smart_initialization_plan(graph)
        assert set(plan.order) == graph.vertex_set()
        assert set(plan.mu) == graph.vertex_set()

    def test_star_bounds(self):
        """Star: tau = 1 everywhere, w = 1 -> mu = 0.5 (an edge's affinity)."""
        plan = smart_initialization_plan(star_graph(5))
        assert all(mu == pytest.approx(0.5) for mu in plan.mu.values())


class TestPlanMemo:
    """The sparse plan depends on GD+ alone: it is built once per frozen
    adjacency and handed back to every later solve on it."""

    @staticmethod
    def _count_core_passes(monkeypatch):
        import repro.core.initialization as initialization

        calls = []
        original = initialization.core_numbers

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(initialization, "core_numbers", counting)
        return calls

    def test_prepared_graph_builds_its_plan_once(self, monkeypatch):
        from repro.engine.envelope import SolveRequest, solve
        from repro.engine.prepared import PreparedGraph

        calls = self._count_core_passes(monkeypatch)
        prepared = PreparedGraph(random_signed_graph(30, 0.3, seed=2))
        solve(SolveRequest("affinity", backend="sparse"), prepared)
        solve(SolveRequest("affinity", backend="sparse", tol_scale=1e-3), prepared)
        assert len(calls) == 1

    def test_same_adjacency_returns_the_same_plan(self):
        import pickle

        from repro.graph.sparse import CSRAdjacency

        gp = random_signed_graph(30, 0.3, seed=5).positive_part()
        adj = CSRAdjacency.from_graph(gp)
        plan = smart_initialization_plan(gp, backend="sparse", adjacency=adj)
        assert smart_initialization_plan(
            gp, backend="sparse", adjacency=adj
        ) is plan
        # Pickling drops derived state: the copy builds its own, equal plan.
        copy = pickle.loads(pickle.dumps(adj))
        rebuilt = smart_initialization_plan(gp, backend="sparse", adjacency=copy)
        assert rebuilt is not plan
        assert rebuilt == plan

    def test_python_backend_builds_a_plan_per_call(self, monkeypatch):
        calls = self._count_core_passes(monkeypatch)
        gp = random_signed_graph(30, 0.3, seed=5).positive_part()
        first = smart_initialization_plan(gp)
        second = smart_initialization_plan(gp)
        assert len(calls) == 2
        assert first is not second
        assert first == second
