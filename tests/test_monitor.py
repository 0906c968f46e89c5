"""Tests for the Section I anomaly-monitoring loop on the streaming engine.

The expectation is the mean of a window of recent observations, and
each new one is contrasted against it.  :class:`StreamingDCSEngine` runs
that loop; a stream of whole snapshots reaches it through
``events_between`` (:func:`tests.conftest.snapshot_events`).  Also here:
the python window mean of the naive reference, and the exact DCSAD on
positive graphs.
"""

from __future__ import annotations

import pytest

from repro.core.dcsad import dcs_exact_positive
from repro.core.difference import mean_graph
from repro.exceptions import VertexNotFound
from repro.graph.graph import Graph
from repro.graph.sparse import scipy_available
from repro.stream import EdgeEvent, StreamAlert, StreamingDCSEngine, events_between
from tests.conftest import snapshot_events

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires SciPy"
)


def monitor(snapshots, **params):
    """An engine run over *snapshots*: ``(engine, alerts)``."""
    universe = set().union(*(s.vertex_set() for s in snapshots))
    engine = StreamingDCSEngine(universe, **params)
    alerts = engine.run(snapshot_events(snapshots), n_steps=len(snapshots))
    return engine, alerts


class TestMeanGraph:
    def test_mean_of_identical_graphs(self, triangle):
        mean = mean_graph([triangle, triangle, triangle])
        assert mean == triangle

    def test_mean_averages_weights(self):
        g1 = Graph.from_edges([("a", "b", 1.0)], vertices=["c"])
        g2 = Graph.from_edges([("a", "b", 3.0), ("b", "c", 2.0)])
        mean = mean_graph([g1, g2])
        assert mean.weight("a", "b") == pytest.approx(2.0)
        assert mean.weight("b", "c") == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_graph([])


class TestMonitorValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            StreamingDCSEngine(["a", "b"], window=0)

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            StreamingDCSEngine(["a", "b"], measure="vibes")

    def test_vertex_set_must_stay_fixed(self, triangle):
        """The universe is fixed at construction: a snapshot with an
        edge on another vertex is refused."""
        engine = StreamingDCSEngine(triangle.vertices(), window=2)
        other = Graph.from_edges([("x", "y", 1.0)])
        with pytest.raises(VertexNotFound):
            for event in events_between(triangle, other, t=1):
                engine.ingest(event)

    def test_no_alert_during_warmup(self, triangle):
        engine, _ = monitor([triangle] * 4, window=3)
        # Answered from step `window` onward, never before.
        assert [p.step for p in engine.step_profiles()] == [3]


class TestMonitorDetection:
    """The planted burst of the shared `workload` (members surge at
    steps 9–11), fed as snapshots with window 4."""

    def test_ground_truth_metadata(self, workload):
        assert workload.n_steps == 18
        assert len(workload.anomaly_members) == 5
        assert workload.is_anomalous_step(9)
        assert workload.is_anomalous_step(11)
        assert not workload.is_anomalous_step(8)
        assert not workload.is_anomalous_step(12)

    def test_average_degree_monitor_flags_anomaly(self, workload):
        _, alerts = monitor(workload.snapshots(), window=4, min_score=1e-6)
        by_step = {alert.step: alert for alert in alerts}
        quiet = [
            alert.score
            for alert in alerts
            if not workload.is_anomalous_step(alert.step)
        ]
        hot = [by_step[step].score for step in (9, 10, 11)]
        # The anomaly steps score far above every quiet step.
        assert min(hot) > 2 * max(quiet)
        # And the flagged subset is (essentially) the planted cluster.
        flagged = by_step[9].subset
        assert len(flagged & workload.anomaly_members) >= 4

    def test_affinity_monitor_flags_clique(self, workload):
        _, alerts = monitor(
            workload.snapshots(), window=4, measure="affinity", min_score=1e-6
        )
        by_step = {alert.step: alert for alert in alerts}
        quiet_scores = [
            alert.score
            for alert in alerts
            if not workload.is_anomalous_step(alert.step)
        ]
        for step in (9, 10, 11):
            hot = by_step[step]
            assert hot.subset <= workload.anomaly_members
            assert hot.score > 2 * max(quiet_scores)

    def test_alert_threshold_helper(self):
        alert = StreamAlert(
            step=0, subset=frozenset({"a"}), score=1.5, measure="affinity"
        )
        assert alert.exceeds(1.0)
        assert not alert.exceeds(2.0)


class TestMonitorEdgeCases:
    def test_empty_history_never_contrasted(self, triangle):
        """Step 0 has no expectation; even warmup=0 clamps to 1."""
        engine, _ = monitor([triangle, triangle], window=3, warmup=0)
        assert engine.warmup == 1
        assert [p.step for p in engine.step_profiles()] == [1]

    def test_window_one_contrasts_against_previous_snapshot(self):
        g1 = Graph.from_edges([("a", "b", 1.0)], vertices="c")
        g2 = Graph.from_edges([("a", "b", 5.0), ("b", "c", 2.0)])
        _, alerts = monitor([g1, g2], window=1, warmup=1)
        # Expectation is exactly g1: GD has a-b 4.0 and b-c 2.0, whose
        # densest subgraphs ({a, b} and {a, b, c}) both score 4.0.
        assert [alert.step for alert in alerts] == [1]
        assert alerts[0].score == pytest.approx(4.0)

    def test_vertex_churn_rejected_then_recoverable(self, triangle):
        """An event on a vertex outside the universe is rejected without
        corrupting the stream."""
        engine = StreamingDCSEngine(triangle.vertices(), window=2, warmup=1)
        for event in events_between(Graph(), triangle, t=0):
            engine.ingest(event)
        with pytest.raises(VertexNotFound):
            engine.ingest(EdgeEvent(t=1, u="a", v="newcomer", w=1.0))
        # The failed observation consumed no step and kept no state.
        assert engine.step == 0
        assert engine.stats.events == 3
        assert engine.advance_to(2) == []
        assert [p.step for p in engine.step_profiles()] == [1]
        assert engine.difference.num_edges == 0

    def test_scores_decay_within_planted_burst(self, workload):
        """Alert scores are strictly decreasing across a burst.

        As the sliding window absorbs burst snapshots the expectation
        catches up, so the contrast is maximal at burst onset and decays
        monotonically while the burst persists — the property operators
        rely on when thresholding "new" vs "ongoing" anomalies.
        """
        for measure in ("average_degree", "affinity"):
            _, alerts = monitor(
                workload.snapshots(), window=4, measure=measure, min_score=1e-6
            )
            by_step = {a.step: a for a in alerts}
            burst_scores = [by_step[step].score for step in (9, 10, 11)]
            assert all(
                earlier > later
                for earlier, later in zip(burst_scores, burst_scores[1:])
            ), measure
            quiet = [
                a.score
                for a in alerts
                if not workload.is_anomalous_step(a.step)
            ]
            assert min(burst_scores) > 2 * max(quiet), measure


class TestMonitorBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            StreamingDCSEngine(["a", "b"], backend="vibes")

    @needs_scipy
    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    def test_sparse_backend_agrees_with_python(self, workload, measure):
        snapshots = workload.snapshots()
        params = dict(window=4, measure=measure, min_score=1e-6)
        _, python = monitor(snapshots, **params)
        _, sparse = monitor(snapshots, backend="sparse", **params)
        assert len(python) == len(sparse)
        for a, b in zip(python, sparse):
            assert a.step == b.step
            assert a.score == pytest.approx(b.score)
            assert a.subset == b.subset


class TestExactPositiveDCSAD:
    def test_matches_goldberg_on_positive_graph(self):
        from repro.graph.generators import gnp_graph

        gd = gnp_graph(25, 0.2, seed=4, weight=lambda r: r.uniform(0.5, 3.0))
        result = dcs_exact_positive(gd)
        assert result.ratio_bound == 1.0
        # Exact must be at least as good as the greedy heuristic.
        from repro.core.dcsad import dcs_greedy

        greedy = dcs_greedy(gd)
        assert result.density >= greedy.density - 1e-9

    def test_negative_edge_rejected(self, signed_graph):
        with pytest.raises(ValueError):
            dcs_exact_positive(signed_graph)

    def test_edgeless(self):
        gd = Graph()
        gd.add_vertices("ab")
        result = dcs_exact_positive(gd)
        assert result.density == 0.0
        assert len(result.subset) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dcs_exact_positive(Graph())
