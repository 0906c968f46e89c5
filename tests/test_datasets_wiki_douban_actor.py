"""Tests for the Wiki, Douban and Actor synthetic datasets."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import average_degree, edge_density
from repro.core.difference import difference_stats
from repro.datasets.synthetic_actor import actor_network
from repro.datasets.synthetic_douban import (
    douban_network,
    interest_graph,
    jaccard,
    two_hop_pairs,
)
from repro.datasets.synthetic_wiki import wiki_interactions
from repro.graph.generators import gnp_graph
from repro.graph.graph import Graph


class TestWiki:
    @pytest.fixture(scope="class")
    def wiki(self):
        return wiki_interactions(n_editors=400, blob_size=60, seed=4)

    def test_shared_vertices(self, wiki):
        assert wiki.positive.vertex_set() == wiki.negative.vertex_set()

    def test_planted_sets_disjoint(self, wiki):
        groups = [
            wiki.consistent_clique,
            wiki.conflicting_clique,
            wiki.consistent_blob,
            wiki.conflicting_blob,
        ]
        for i, a in enumerate(groups):
            for b in groups[i + 1 :]:
                assert not (a & b)

    def test_consistent_gd_orientation(self, wiki):
        """Consistent GD = positive - negative: the planted consistent
        clique must be strongly positive there."""
        gd = wiki.consistent_gd()
        assert average_degree(gd, wiki.consistent_clique) > 5.0
        assert average_degree(gd, wiki.conflicting_clique) < 0.0

    def test_conflicting_is_flip(self, wiki):
        assert wiki.conflicting_gd() == wiki.consistent_gd().negated()

    def test_negative_background_denser(self, wiki):
        """Paper Table II: the Consistent GD has m+ < m-."""
        stats = difference_stats(wiki.consistent_gd())
        assert stats.num_positive_edges < stats.num_negative_edges

    def test_blob_is_dense_but_not_clique(self, wiki):
        from repro.graph.cliques import is_clique

        gd = wiki.consistent_gd()
        assert not is_clique(gd.positive_part(), wiki.consistent_blob)
        assert average_degree(gd, wiki.consistent_blob) > 0


class TestDoubanPrimitives:
    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 0.0
        assert jaccard({1}, {2}) == 0.0
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_two_hop_pairs_path(self):
        graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        pairs = two_hop_pairs(graph)
        assert ("a", "b") in pairs
        assert ("a", "c") in pairs  # via b
        assert len(pairs) == 3

    def test_two_hop_pairs_match_brute_force(self):
        numeric = gnp_graph(20, 0.15, seed=3)
        graph = numeric.relabeled({u: f"u{u}" for u in numeric.vertices()})
        vertices = sorted(graph.vertices(), key=repr)
        expected = {
            (u, v)
            for i, u in enumerate(vertices)
            for v in vertices[i + 1 :]
            if graph.has_edge(u, v)
            or set(graph.neighbors(u)) & set(graph.neighbors(v))
        }
        assert expected  # the oracle is not vacuous on this input
        assert two_hop_pairs(graph) == expected

    def test_interest_graph_respects_two_hops(self):
        """Similar users farther than 2 hops get no edge."""
        social = Graph.from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)]
        )
        ratings = {u: {1, 2, 3} for u in "abcd"}
        graph = interest_graph(social, ratings, threshold=0.5)
        assert graph.has_edge("a", "c")
        assert not graph.has_edge("a", "d")

    def test_interest_graph_threshold(self):
        social = Graph.from_edges([("a", "b", 1.0)])
        ratings = {"a": {1, 2, 3, 4}, "b": {3, 4, 5, 6}}
        # Jaccard = 2/6 = 0.333.
        assert interest_graph(social, ratings, 0.3).has_edge("a", "b")
        assert not interest_graph(social, ratings, 0.4).has_edge("a", "b")


class TestDoubanDataset:
    @pytest.fixture(scope="class")
    def douban(self):
        # Planted group counts scale with the community count so this
        # smaller instance keeps the full-scale density proportions.
        return douban_network(
            n_users=300,
            n_communities=10,
            n_movie_groups=1,
            n_book_groups=1,
            seed=6,
        )

    def test_unit_weights_everywhere(self, douban):
        for graph in (douban.social, douban.movie_interest, douban.book_interest):
            assert all(w == 1.0 for _, _, w in graph.edges())

    def test_interest_sparser_than_social(self, douban):
        """Paper Table II: both Interest-Social GDs have m+ < m-."""
        assert douban.movie_interest.num_edges < douban.social.num_edges
        assert douban.book_interest.num_edges < douban.movie_interest.num_edges

    def test_gd_types(self, douban):
        inter = douban.gd("movie", "interest-social")
        social = douban.gd("movie", "social-interest")
        assert inter == social.negated()
        with pytest.raises(ValueError):
            douban.gd("movie", "sideways")

    def test_movie_taste_groups_dense_in_contrast(self, douban):
        gd = douban.gd("movie", "interest-social")
        for group in douban.movie_taste_groups:
            assert edge_density(gd, group) > 0.5

    def test_social_clique_positive_in_social_interest(self, douban):
        gd = douban.gd("movie", "social-interest")
        assert edge_density(gd, douban.social_clique) > 0.5

    def test_movie_asymmetry_matches_paper(self, douban):
        """Table XIII shape: movie interest groups are denser-in-contrast
        than book groups."""
        movie_gd = douban.gd("movie", "interest-social")
        book_gd = douban.gd("book", "interest-social")
        movie_best = max(
            edge_density(movie_gd, g) for g in douban.movie_taste_groups
        )
        book_best = max(
            edge_density(book_gd, g) for g in douban.book_taste_groups
        )
        assert movie_best > book_best


class TestActor:
    @pytest.fixture(scope="class")
    def actor(self):
        return actor_network(n_actors=400, seed=7)

    def test_positive_only(self, actor):
        stats = difference_stats(actor.weighted_gd())
        assert stats.num_negative_edges == 0
        assert stats.min_weight >= 1.0

    def test_trio_has_heavy_weights(self, actor):
        trio = sorted(actor.prolific_trio)
        graph = actor.graph
        for i, u in enumerate(trio):
            for v in trio[i + 1 :]:
                assert graph.weight(u, v) >= 100.0 - 10.0

    def test_discrete_caps_at_ten(self, actor):
        capped = actor.discrete_gd()
        assert max(w for _, _, w in capped.edges()) == 10.0
        # Same topology, just clipped weights.
        assert capped.num_edges == actor.graph.num_edges

    def test_ensembles_are_cliques(self, actor):
        from repro.graph.cliques import is_positive_clique

        for ensemble in actor.ensembles:
            assert is_positive_clique(actor.graph, ensemble)

    def test_weighted_dcsga_prefers_trio_discrete_prefers_ensemble(self, actor):
        """Table XIV shape: capping flips the DCSGA answer from the tiny
        prolific group to a big ensemble."""
        from repro.core.newsea import new_sea

        weighted = new_sea(actor.weighted_gd().positive_part())
        discrete = new_sea(actor.discrete_gd().positive_part())
        assert len(weighted.support) <= 4
        assert len(discrete.support) >= 10
