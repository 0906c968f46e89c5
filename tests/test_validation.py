"""Tests for ground-truth recovery metrics."""

from __future__ import annotations

import pytest

from repro.analysis.validation import (
    best_match,
    recovery_report,
    score_against,
)


class TestScore:
    def test_perfect_match(self):
        score = score_against({"a", "b"}, {"a", "b"})
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.jaccard == 1.0
        assert score.f1 == 1.0

    def test_partial_overlap(self):
        score = score_against({"a", "b", "c"}, {"b", "c", "d", "e"})
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(0.5)
        assert score.jaccard == pytest.approx(2 / 5)
        assert score.f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_no_overlap(self):
        score = score_against({"a"}, {"b"})
        assert score.precision == 0.0
        assert score.f1 == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            score_against(set(), {"a"})
        with pytest.raises(ValueError):
            score_against({"a"}, set())


class TestBestMatch:
    def test_selects_highest_jaccard(self):
        index, score = best_match(
            {"a", "b", "c"},
            [{"x"}, {"a", "b", "c", "d"}, {"a"}],
        )
        assert index == 1
        assert score.jaccard == pytest.approx(3 / 4)

    def test_empty_targets(self):
        index, score = best_match({"a"}, [])
        assert index is None and score is None


class TestReport:
    def test_counts_recovered(self):
        report = recovery_report(
            found_sets=[{"a", "b"}, {"x", "y", "z"}],
            targets=[{"a", "b"}, {"x", "y"}, {"q"}],
            threshold=0.5,
        )
        assert report["recovered"] == 2
        assert report["total"] == 3
        assert report["rate"] == pytest.approx(2 / 3)
        assert report["per_target_jaccard"][2] == 0.0

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError):
            recovery_report([{"a"}], [])

    def test_end_to_end_with_solver(self):
        """NewSEA recovers planted groups on the DBLP substitute."""
        from repro.core.difference import difference_graph
        from repro.core.topk import top_k_dcsga
        from repro.datasets.synthetic_dblp import coauthor_snapshots

        dataset = coauthor_snapshots(n_authors=240, n_communities=12, seed=4)
        gd = difference_graph(dataset.g1, dataset.g2)
        found = [
            item.subset
            for item in top_k_dcsga(gd.positive_part(), k=3)
        ]
        report = recovery_report(
            found, dataset.emerging_groups, threshold=0.5
        )
        assert report["recovered"] >= 2
