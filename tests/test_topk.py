"""Tests for top-k DCS mining (the future-work extension)."""

from __future__ import annotations

import pytest

from repro.core.topk import RankedDCS, coverage, top_k_dcsad, top_k_dcsga
from repro.graph.cliques import is_clique
from repro.graph.generators import complete_graph, random_signed_graph
from repro.graph.graph import Graph


def _two_cliques_gd() -> Graph:
    """Two disjoint positive cliques of different strength + noise."""
    gd = complete_graph(4, weight=3.0)
    for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
        gd.add_edge(u, v, 2.0)
    gd.add_edge(0, "n", -1.0)
    return gd


class TestTopKDCSGA:
    def test_k_must_be_positive(self, triangle):
        with pytest.raises(ValueError):
            top_k_dcsga(triangle, 0)

    def test_finds_both_cliques_in_order(self):
        gd = _two_cliques_gd()
        results = top_k_dcsga(gd.positive_part(), k=2)
        assert len(results) == 2
        assert results[0].subset == {0, 1, 2, 3}
        assert results[1].subset == {"x", "y", "z"}
        assert results[0].objective > results[1].objective

    def test_objectives_sorted(self):
        gd_plus = random_signed_graph(25, 0.3, seed=1).positive_part()
        results = top_k_dcsga(gd_plus, k=5)
        objectives = [r.objective for r in results]
        assert objectives == sorted(objectives, reverse=True)

    def test_diversified_supports_disjoint(self):
        gd_plus = random_signed_graph(25, 0.3, seed=2).positive_part()
        results = top_k_dcsga(gd_plus, k=5, diversify=True)
        seen = set()
        for item in results:
            assert not (item.subset & seen)
            seen |= item.subset

    def test_non_diversified_can_overlap(self):
        gd_plus = random_signed_graph(25, 0.35, seed=3).positive_part()
        loose = top_k_dcsga(gd_plus, k=8, diversify=False)
        tight = top_k_dcsga(gd_plus, k=8, diversify=True)
        assert len(loose) >= len(tight)

    def test_all_answers_are_cliques(self):
        gd_plus = random_signed_graph(20, 0.35, seed=4).positive_part()
        for item in top_k_dcsga(gd_plus, k=4):
            assert is_clique(gd_plus, item.subset)
            assert item.embedding is not None
            assert set(item.embedding) == item.subset

    def test_fewer_than_k_available(self):
        gd = Graph.from_edges([("a", "b", 1.0)])
        results = top_k_dcsga(gd, k=5)
        assert len(results) == 1


class TestTopKDCSAD:
    def test_k_must_be_positive(self, signed_graph):
        with pytest.raises(ValueError):
            top_k_dcsad(signed_graph, 0)

    def test_vertex_removal_gives_disjoint_answers(self):
        gd = _two_cliques_gd()
        results = top_k_dcsad(gd, k=3, strategy="vertices")
        assert len(results) == 2  # noise edge is negative: no third answer
        assert results[0].subset == {0, 1, 2, 3}
        assert results[1].subset == {"x", "y", "z"}
        assert not (results[0].subset & results[1].subset)

    def test_edge_removal_allows_overlap(self):
        # A triangle sharing vertex "b" with a heavy edge.
        gd = Graph.from_edges(
            [
                ("a", "b", 5.0),
                ("b", "c", 5.0),
                ("a", "c", 5.0),
                ("b", "d", 4.0),
            ]
        )
        results = top_k_dcsad(gd, k=2, strategy="edges")
        assert len(results) == 2
        assert results[0].subset == {"a", "b", "c"}
        assert results[1].subset == {"b", "d"}

    def test_unknown_strategy_rejected(self, signed_graph):
        with pytest.raises(ValueError):
            top_k_dcsad(signed_graph, 2, strategy="teleport")

    def test_stops_when_no_positive_structure(self):
        gd = Graph.from_edges([("a", "b", -1.0)])
        assert top_k_dcsad(gd, k=3) == []

    @pytest.mark.parametrize("strategy", ["vertices", "edges"])
    @pytest.mark.parametrize("seed", [5, 9, 17])
    def test_objectives_decreasing(self, seed, strategy):
        # Seeds 9 and 17 find a denser group in a later round than in
        # an earlier one; the ranking must still be by density.
        gd = random_signed_graph(30, 0.25, seed=seed)
        results = top_k_dcsad(gd, k=4, strategy=strategy)
        objectives = [r.objective for r in results]
        assert objectives == sorted(objectives, reverse=True)
        assert [r.rank for r in results] == list(range(len(results)))

    def test_min_objective_threshold(self):
        gd = _two_cliques_gd()
        # The weaker clique has contrast 4.0; threshold above it.
        results = top_k_dcsad(gd, k=3, min_objective=5.0)
        assert len(results) == 1

    def test_edges_removal_stops_cleanly_when_positive_edges_run_out(self):
        """k far beyond the positive structure must stop, not raise/loop.

        After every positive edge has been mined out, the residual still
        holds vertices and negative edges; further rounds have nothing
        to return and the iteration must end cleanly.
        """
        gd = Graph.from_edges(
            [
                ("a", "b", 2.0),
                ("b", "c", 1.5),
                ("a", "c", -1.0),
                ("c", "d", -3.0),
            ]
        )
        results = top_k_dcsad(gd, k=50, strategy="edges")
        assert 1 <= len(results) < 50
        assert all(item.objective > 0 for item in results)
        # Each round consumed structure: no answer repeats.
        subsets = [frozenset(item.subset) for item in results]
        assert len(subsets) == len(set(subsets))

    def test_edges_removal_exhausts_with_negative_min_objective(self):
        """Even min_objective=-inf cannot make the loop spin or raise:
        the no-positive-edge stop fires once the structure is gone."""
        gd = _two_cliques_gd()
        results = top_k_dcsad(
            gd, k=100, strategy="edges", min_objective=float("-inf")
        )
        assert len(results) < 100
        positive_edges = sum(1 for _, _, w in gd.edges() if w > 0)
        # Every round removes at least one edge, bounding the rounds.
        assert len(results) <= gd.num_edges
        assert all(item.objective > 0 for item in results[: positive_edges])

    @pytest.mark.parametrize("strategy", ["vertices", "edges"])
    def test_random_exhaustion_terminates(self, strategy):
        for seed in range(5):
            gd = random_signed_graph(20, 0.3, seed=seed)
            results = top_k_dcsad(gd, k=10_000, strategy=strategy)
            assert all(item.objective > 0 for item in results)
            # Ranks are consecutive from 0.
            assert [item.rank for item in results] == list(
                range(len(results))
            )


class TestCoverage:
    def test_union_of_subsets(self):
        results = [
            RankedDCS(rank=0, subset={"a", "b"}, objective=2.0),
            RankedDCS(rank=1, subset={"c"}, objective=1.0),
        ]
        assert coverage(results) == {"a", "b", "c"}

    def test_empty(self):
        assert coverage([]) == set()


# ----------------------------------------------------------------------
# the streaming engine's k answers
# ----------------------------------------------------------------------
from repro.core.difference import difference_graph, mean_graph  # noqa: E402
from repro.stream import (  # noqa: E402
    SOURCE_SOLVE,
    StreamingDCSEngine,
    solve_difference,
)
from repro.stream.events import EdgeEvent  # noqa: E402


class TestSolveDifferenceRanking:
    @pytest.mark.parametrize("order", ["ab-first", "cd-first"])
    def test_equal_scores_rank_by_size_then_repr(self, order):
        """Two disjoint equal-weight edges tie at k=2: the ranking
        follows the subset (size, then repr), not insertion order."""
        edges = [("a", "b", 2.0), ("c", "d", 2.0)]
        if order == "cd-first":
            edges.reverse()
        diff = Graph()
        for u, v, w in edges:
            diff.add_edge(u, v, w)
        answers = solve_difference(diff, "average_degree", k=2)
        assert [sorted(o.subset) for o in answers] == [["a", "b"], ["c", "d"]]
        assert answers[0].score == answers[1].score


class _WindowOracle:
    """Replays raw events and recomputes the window top-k per step."""

    def __init__(self, universe, window, k, strategy="vertices"):
        from collections import deque

        self.state = Graph()
        self.state.add_vertices(universe)
        self.history = deque(maxlen=window)
        self.k = k
        self.strategy = strategy

    def observe(self, events):
        for event in events:
            self.state.add_edge(event.u, event.v, event.w)

    def close_step(self):
        """Expectation over the retained window, then batch top-k."""
        answers = []
        if self.history:
            expectation = mean_graph(list(self.history))
            diff = difference_graph(expectation, self.state).map_weights(
                lambda w: 0.0 if abs(w) <= 1e-9 else w
            )
            answers = solve_difference(
                diff, "average_degree", k=self.k, strategy=self.strategy
            )
        self.history.append(self.state.copy())
        return answers


class TestEngineTopK:
    def _stream(self, seed, n_steps=14, n_vertices=24):
        from repro.datasets.streaming import burst_event_stream

        return burst_event_stream(
            n_vertices=n_vertices,
            n_steps=n_steps,
            base_p=0.1,
            reobserve_p=0.02,
            anomaly_size=4,
            anomaly_start=7,
            anomaly_duration=4,
            seed=seed,
        )

    def test_rejects_bad_topk_config(self):
        with pytest.raises(ValueError):
            StreamingDCSEngine({"a", "b"}, k=0)
        with pytest.raises(ValueError):
            StreamingDCSEngine({"a", "b"}, k=2, topk_strategy="bogus")

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_maintained_topk_equals_window_recompute(self, seed):
        """Property (satellite): at every step past warmup, the
        engine's maintained top-k equals batch ``top_k_dcsad`` on a
        from-scratch rebuild of the same window."""
        from collections import defaultdict

        stream = self._stream(seed)
        k = 3
        engine = StreamingDCSEngine(
            stream.universe, window=5, min_score=1e-6, k=k
        )
        oracle = _WindowOracle(stream.universe, window=5, k=k)
        by_step = defaultdict(list)
        for event in stream.log.events:
            by_step[event.t].append(event)
        for t in range(stream.n_steps):
            for event in by_step[t]:
                engine.ingest(event)
            oracle.observe(by_step[t])
            engine.advance_to(t + 1)
            expected = oracle.close_step()
            if t < 5:
                continue
            mine = engine.current_topk()
            assert [frozenset(r.subset) for r in mine] == [
                o.subset for o in expected
            ], f"step {t}"
            for ranked, outcome in zip(mine, expected):
                assert ranked.objective == pytest.approx(
                    outcome.score, rel=1e-6, abs=1e-9
                )

    def test_affinity_topk_runs_and_ranks(self):
        stream = self._stream(1, n_vertices=16)
        engine = StreamingDCSEngine(
            stream.universe,
            window=4,
            measure="affinity",
            min_score=1e-6,
            k=2,
        )
        engine.run(stream.log.events, n_steps=stream.n_steps)
        ranking = engine.current_topk()
        scores = [item.objective for item in ranking]
        assert scores == sorted(scores, reverse=True)
        assert len(ranking) <= 2

    def test_clean_step_cache_tracks_rank_membership(self):
        """Rank membership follows the decaying difference, and each
        step serves the rank-0 answer of the ranking it leaves.

        Decay drives the flip: after a spike goes silent, the window
        mean keeps rising toward the spike, so its contrast shrinks
        step by step (dirty from decay edits, no new events).  With
        window=3 the (a,b) spike decays to exactly zero two silent
        steps later and leaves the ranking; (c,d) — spiked one step
        later — is still positive and takes over rank 0.
        """
        universe = {"a", "b", "c", "d", "e", "f"}
        engine = StreamingDCSEngine(
            universe, window=3, warmup=1, min_score=1e-6, k=2
        )
        # Quiet baseline, then staggered spikes.
        engine.ingest(EdgeEvent(0, "a", "b", 1.0))
        engine.ingest(EdgeEvent(0, "c", "d", 1.0))
        engine.ingest(EdgeEvent(1, "a", "b", 13.0))
        engine.ingest(EdgeEvent(2, "c", "d", 6.9))
        engine.advance_to(3)
        assert [sorted(r.subset) for r in engine.current_topk()] == [
            ["a", "b"], ["c", "d"],
        ]
        # Silence.  Step 3 still ranks (a,b) first; at step 4 (a,b)
        # has decayed to zero and (c,d) is all that is left.
        alerts = engine.advance_to(5)
        assert [(a.step, sorted(a.subset), a.source) for a in alerts] == [
            (3, ["a", "b"], SOURCE_SOLVE),
            (4, ["c", "d"], SOURCE_SOLVE),
        ]
        ranking = engine.current_topk()
        assert [sorted(r.subset) for r in ranking] == [["c", "d"]]
        assert ranking[0].objective == alerts[-1].score

    @pytest.mark.parametrize("k", [1, 2])
    def test_incumbent_decayed_to_zero_leaves_the_ranking(self, k):
        """An answer whose contrast decays to zero is dropped at
        every k: the maintained ranking keeps strictly positive scores
        only, and k=1 is the one-entry case of the same structure."""
        engine = StreamingDCSEngine(
            {"a", "b", "c"}, window=3, warmup=1, min_score=1e-6, k=k
        )
        engine.ingest(EdgeEvent(0, "a", "b", 1.0))
        engine.ingest(EdgeEvent(1, "a", "b", 13.0))
        engine.advance_to(5)
        assert engine.current_topk() == []
