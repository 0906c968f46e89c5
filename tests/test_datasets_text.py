"""Tests for the synthetic keyword corpus (DM data substitute)."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import uniform_affinity
from repro.core.difference import difference_graph
from repro.datasets.synthetic_text import association_graph, keyword_corpus


@pytest.fixture(scope="module")
def corpus():
    return keyword_corpus(
        n_titles_per_era=1200, n_background_words=100, seed=2
    )


class TestAssociationGraph:
    def test_weights_match_cooccurrence(self):
        titles = [["a", "b"], ["a", "b", "c"], ["c", "d"]]
        graph = association_graph(titles, ["a", "b", "c", "d"])
        assert graph.weight("a", "b") == pytest.approx(100 * 2 / 3)
        assert graph.weight("a", "c") == pytest.approx(100 * 1 / 3)
        assert graph.weight("a", "d") == 0.0

    def test_duplicate_words_in_title_count_once(self):
        graph = association_graph([["a", "a", "b"]], ["a", "b"])
        assert graph.weight("a", "b") == pytest.approx(100.0)

    def test_empty_corpus(self):
        graph = association_graph([], ["a", "b"])
        assert graph.num_edges == 0
        assert graph.vertex_set() == {"a", "b"}


class TestCorpus:
    def test_vocabulary_covers_topics(self, corpus):
        for topic_set in (
            corpus.emerging_topics
            + corpus.disappearing_topics
            + corpus.stable_topics
        ):
            assert topic_set <= corpus.vocabulary

    def test_era2_growth(self, corpus):
        assert len(corpus.titles2) > len(corpus.titles1)

    def test_shared_vertex_sets(self, corpus):
        assert corpus.g1.vertex_set() == corpus.g2.vertex_set()

    def test_topic_classification(self, corpus):
        assert {"social", "networks"} in corpus.emerging_topics
        assert {"mining", "association", "rules"} in corpus.disappearing_topics
        assert {"time", "series"} in corpus.stable_topics

    def test_determinism(self):
        a = keyword_corpus(n_titles_per_era=300, seed=9)
        b = keyword_corpus(n_titles_per_era=300, seed=9)
        assert a.g1 == b.g1 and a.g2 == b.g2


class TestContrastShape:
    def test_emerging_topic_has_positive_contrast(self, corpus):
        gd = difference_graph(corpus.g1, corpus.g2)
        for topic in corpus.emerging_topics:
            assert uniform_affinity(gd, topic) > 0.0

    def test_disappearing_topic_has_negative_contrast(self, corpus):
        gd = difference_graph(corpus.g1, corpus.g2)
        for topic in corpus.disappearing_topics:
            assert uniform_affinity(gd, topic) < 0.0

    def test_stable_topics_hot_in_both_eras(self, corpus):
        """The 'time series' trap: high affinity in each era separately,
        small contrast between them."""
        gd = difference_graph(corpus.g1, corpus.g2)
        for topic in corpus.stable_topics:
            in_g1 = uniform_affinity(corpus.g1, topic)
            in_g2 = uniform_affinity(corpus.g2, topic)
            contrast = abs(uniform_affinity(gd, topic))
            assert in_g1 > contrast
            assert in_g2 > contrast

    def test_emerging_beats_stable_on_contrast(self, corpus):
        gd = difference_graph(corpus.g1, corpus.g2)
        best_emerging = max(
            uniform_affinity(gd, t) for t in corpus.emerging_topics
        )
        best_stable = max(
            abs(uniform_affinity(gd, t)) for t in corpus.stable_topics
        )
        assert best_emerging > best_stable
