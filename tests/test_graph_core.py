"""Tests for the weighted-graph core."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFound, SelfLoopError, VertexNotFound
from repro.graph.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_from_edges_with_isolated(self):
        graph = Graph.from_edges([("a", "b", 2.0)], vertices=["c"])
        assert graph.vertex_set() == {"a", "b", "c"}
        assert graph.num_edges == 1

    def test_from_unweighted_edges(self):
        graph = Graph.from_unweighted_edges([(1, 2), (2, 3)])
        assert graph.weight(1, 2) == 1.0
        assert graph.num_edges == 2

    def test_repeated_edge_overwrites(self):
        graph = Graph.from_edges([("a", "b", 1.0), ("a", "b", 5.0)])
        assert graph.weight("a", "b") == 5.0
        assert graph.num_edges == 1

    def test_copy_is_independent(self):
        graph = Graph.from_edges([("a", "b", 1.0)])
        clone = graph.copy()
        clone.add_edge("a", "c", 2.0)
        assert not graph.has_edge("a", "c")
        assert graph == Graph.from_edges([("a", "b", 1.0)])

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(SelfLoopError):
            graph.add_edge("a", "a", 1.0)


class TestEdgeSemantics:
    def test_zero_weight_means_no_edge(self):
        graph = Graph()
        graph.add_edge("a", "b", 0.0)
        assert not graph.has_edge("a", "b")
        assert graph.num_edges == 0
        assert graph.vertex_set() == {"a", "b"}

    def test_zero_weight_deletes_existing_edge(self):
        graph = Graph.from_edges([("a", "b", 3.0)])
        graph.add_edge("a", "b", 0.0)
        assert not graph.has_edge("a", "b")
        assert graph.num_edges == 0

    def test_negative_weights_are_edges(self):
        graph = Graph.from_edges([("a", "b", -2.5)])
        assert graph.has_edge("a", "b")
        assert graph.weight("a", "b") == -2.5

    def test_increment_edge_creates_and_cancels(self):
        graph = Graph()
        graph.increment_edge("a", "b", 2.0)
        assert graph.weight("a", "b") == 2.0
        graph.increment_edge("a", "b", -2.0)
        assert not graph.has_edge("a", "b")

    def test_symmetry(self):
        graph = Graph.from_edges([("a", "b", 4.0)])
        assert graph.weight("b", "a") == 4.0
        assert "a" in graph.neighbors("b")

    def test_remove_edge_returns_weight(self):
        graph = Graph.from_edges([("a", "b", 7.0)])
        assert graph.remove_edge("a", "b") == 7.0
        assert graph.num_edges == 0

    def test_remove_missing_edge_raises(self):
        graph = Graph.from_edges([("a", "b", 1.0)])
        with pytest.raises(EdgeNotFound):
            graph.remove_edge("a", "c")

    def test_discard_edge(self):
        graph = Graph.from_edges([("a", "b", 1.0)])
        assert graph.discard_edge("a", "b") == 1.0
        assert graph.discard_edge("a", "b") is None

    def test_remove_vertex_drops_incident_edges(self):
        graph = Graph.from_edges(
            [("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0)]
        )
        graph.remove_vertex("a")
        assert graph.num_edges == 1
        assert graph.vertex_set() == {"b", "c"}

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFound):
            Graph().remove_vertex("ghost")


class TestQueries:
    def test_degree_with_signed_weights(self):
        graph = Graph.from_edges([("a", "b", 3.0), ("a", "c", -5.0)])
        assert graph.degree("a") == -2.0
        assert graph.unweighted_degree("a") == 2

    def test_neighbors_missing_vertex_raises(self):
        with pytest.raises(VertexNotFound):
            Graph().neighbors("ghost")

    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        pairs = {frozenset((u, v)) for u, v, _ in edges}
        assert len(pairs) == 3

    def test_total_weight_once_counted(self, triangle):
        assert triangle.total_weight() == 3.0

    def test_total_degree_full_graph_double_counts(self, triangle):
        assert triangle.total_degree() == 6.0

    def test_total_degree_subset(self, triangle):
        # Paper convention: W({a,b}) = 2 * w(a,b).
        assert triangle.total_degree({"a", "b"}) == 2.0
        assert triangle.total_degree({"a"}) == 0.0

    def test_total_degree_missing_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFound):
            triangle.total_degree({"a", "ghost"})

    def test_max_and_min_weight_edges(self):
        graph = Graph.from_edges([("a", "b", -3.0), ("b", "c", 5.0)])
        assert graph.max_weight_edge()[2] == 5.0
        assert graph.min_weight_edge()[2] == -3.0
        assert Graph().max_weight_edge() is None

    @pytest.mark.parametrize("cd_first", [True, False])
    def test_max_weight_edge_tie_goes_to_smallest_repr_pair(self, cd_first):
        """Ties resolve on content, not insertion order: the repr-sorted
        endpoint pair that sorts first wins (the CSR argmax's pick)."""
        edges = [("c", "d", 2.0), ("a", "b", 2.0), ("b", "e", -1.0)]
        graph = Graph.from_edges(edges if cd_first else edges[::-1])
        assert graph.max_weight_edge() == ("a", "b", 2.0)
        # Endpoints come back repr-sorted, whichever was inserted first.
        assert Graph.from_edges([("z", "y", 1.0)]).max_weight_edge() == (
            "y", "z", 1.0,
        )


class TestDerivedGraphs:
    def test_subgraph(self):
        graph = Graph.from_edges(
            [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0), ("c", "d", 4.0)]
        )
        sub = graph.subgraph({"a", "b", "c"})
        assert sub.num_edges == 3
        assert not sub.has_vertex("d")

    def test_subgraph_missing_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFound):
            triangle.subgraph({"a", "ghost"})

    def test_positive_part_keeps_all_vertices(self):
        graph = Graph.from_edges([("a", "b", -1.0), ("b", "c", 2.0)])
        plus = graph.positive_part()
        assert plus.vertex_set() == {"a", "b", "c"}
        assert plus.num_edges == 1
        assert plus.weight("b", "c") == 2.0

    def test_negated_flips_signs(self):
        graph = Graph.from_edges([("a", "b", -1.5), ("b", "c", 2.0)])
        flipped = graph.negated()
        assert flipped.weight("a", "b") == 1.5
        assert flipped.weight("b", "c") == -2.0

    def test_negated_twice_is_identity(self):
        graph = Graph.from_edges([("a", "b", -1.5), ("b", "c", 2.0)])
        assert graph.negated().negated() == graph

    def test_map_weights_drops_zeros(self):
        graph = Graph.from_edges([("a", "b", 0.5), ("b", "c", 3.0)])
        capped = graph.map_weights(lambda w: w if w >= 1.0 else 0.0)
        assert not capped.has_edge("a", "b")
        assert capped.weight("b", "c") == 3.0

    def test_relabeled(self):
        graph = Graph.from_edges([("a", "b", 1.0)])
        renamed = graph.relabeled({"a": "x"})
        assert renamed.has_edge("x", "b")
        assert not renamed.has_vertex("a")

    def test_relabeled_non_injective_raises(self):
        graph = Graph.from_edges([("a", "b", 1.0)])
        with pytest.raises(ValueError):
            graph.relabeled({"a": "b"})
