"""Tests for the Fig. 3 clique census."""

from __future__ import annotations

from repro.analysis.clique_census import (
    census_from_all_inits,
    census_from_solutions,
    census_series,
    verify_cliques,
)
from repro.core.newsea import solve_all_initializations
from repro.graph.generators import random_signed_graph


def _solutions(*supports):
    return [(set(s), {v: 1.0 / len(s) for v in s}, 0.0) for s in supports]


class TestCensus:
    def test_counts_by_size(self):
        census = census_from_solutions(
            _solutions({"a", "b"}, {"c", "d"}, {"e", "f", "g"})
        )
        assert census.counts == {2: 2, 3: 1}
        assert census.total == 3
        assert census.max_size() == 3

    def test_subsumed_supports_not_counted(self):
        census = census_from_solutions(
            _solutions({"a", "b", "c"}, {"a", "b"})
        )
        assert census.counts == {3: 1}

    def test_at_least_filter(self):
        census = census_from_solutions(
            _solutions({"a"}, {"b", "c"}, {"d", "e", "f"})
        )
        assert census.at_least(2) == {2: 1, 3: 1}

    def test_empty(self):
        census = census_from_solutions([])
        assert census.total == 0
        assert census.max_size() == 0


class TestIntegrationWithSolver:
    def test_census_of_all_inits_run(self):
        gd_plus = random_signed_graph(25, 0.3, seed=7).positive_part()
        result = solve_all_initializations(gd_plus)
        census = census_from_all_inits(result)
        assert census.total == len(result.solutions)
        assert sum(census.counts.values()) == census.total

    def test_verify_cliques_empty_for_refined_solutions(self):
        gd_plus = random_signed_graph(25, 0.3, seed=8).positive_part()
        result = solve_all_initializations(gd_plus)
        assert verify_cliques(gd_plus, result.solutions) == []

    def test_verify_cliques_flags_non_cliques(self):
        gd_plus = random_signed_graph(25, 0.3, seed=9).positive_part()
        fake = _solutions(set(list(gd_plus.vertices())[:5]))
        offenders = verify_cliques(gd_plus, fake)
        # A random 5-subset of a sparse graph is almost surely not a clique.
        assert len(offenders) == 1 or offenders == []


class TestSeries:
    def test_series_from_census(self):
        census = census_from_solutions(
            _solutions({"a", "b"}, {"c", "d"}, {"e", "f", "g"})
        )
        series = census_series(census, "Movie", min_size=2)
        assert series.sorted_points() == [(2.0, 2.0), (3.0, 1.0)]
        assert series.x_label == "Clique Size"
