"""Tests for the incremental streaming DCS engine (`repro/stream/`).

The contract under test is *parity*: the engine's incrementally
maintained window sums, difference graphs, and solver answers must
match a naive full recompute — on both compute backends — while doing
asymptotically less work per step.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.difference import difference_graph, mean_graph
from repro.datasets.streaming import burst_event_stream
from repro.exceptions import InputMismatchError, VertexNotFound
from repro.graph.graph import Graph
from repro.graph.sparse import scipy_available
from repro.stream import (
    AlertLog,
    EdgeEvent,
    EventLog,
    SlidingWindowAccumulator,
    StreamAlert,
    StreamingDCSEngine,
    alert_keys,
    edge_key,
    events_between,
    group_by_step,
    read_events,
    snapshot_recompute,
    solve_difference,
    write_events,
)
from tests.conftest import snapshot_events

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="sparse backend requires SciPy"
)

BACKENDS = ["python"] + (["sparse"] if scipy_available() else [])


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class TestEdgeEvent:
    def test_self_loop_rejected(self):
        with pytest.raises(InputMismatchError):
            EdgeEvent(t=0, u="a", v="a", w=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(InputMismatchError):
            EdgeEvent(t=-1, u="a", v="b", w=1.0)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(InputMismatchError):
            EdgeEvent(t=0, u="a", v="b", w=float("nan"))

    def test_key_is_canonical(self):
        assert EdgeEvent(t=0, u="b", v="a", w=1.0).key == ("a", "b")
        assert edge_key("b", "a") == edge_key("a", "b")

    def test_group_by_step(self):
        events = [
            EdgeEvent(t=0, u="a", v="b", w=1.0),
            EdgeEvent(t=0, u="b", v="c", w=2.0),
            EdgeEvent(t=3, u="a", v="b", w=3.0),
        ]
        groups = list(group_by_step(events))
        assert [t for t, _ in groups] == [0, 3]
        assert len(groups[0][1]) == 2

    def test_group_rejects_time_travel(self):
        events = [
            EdgeEvent(t=2, u="a", v="b", w=1.0),
            EdgeEvent(t=1, u="a", v="b", w=2.0),
        ]
        with pytest.raises(InputMismatchError):
            list(group_by_step(events))

    def test_events_between_diffs_snapshots(self):
        g1 = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
        g2 = Graph.from_edges([("a", "b", 3.0)], vertices=["c"])
        batch = events_between(g1, g2, t=7)
        replayed = g1.copy()
        for event in batch:
            replayed.add_edge(event.u, event.v, event.w)
        assert replayed == g2
        assert all(event.t == 7 for event in batch)

    def test_file_round_trip(self, tmp_path):
        log = EventLog(
            events=[
                EdgeEvent(t=0, u="a", v="b", w=1.5),
                EdgeEvent(t=2, u="b", v="c", w=-0.25),
            ],
            declared={"lonely"},
        )
        path = tmp_path / "events.txt"
        write_events(log, path)
        loaded = read_events(path)
        assert loaded.events == log.events
        assert loaded.universe == {"a", "b", "c", "lonely"}
        assert loaded.last_step == 2

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 a b\n")
        with pytest.raises(InputMismatchError):
            read_events(path)

    def test_read_rejects_decreasing_time(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 a b 1.0\n1 a b 2.0\n")
        with pytest.raises(InputMismatchError):
            read_events(path)


# ----------------------------------------------------------------------
# sliding-window accumulator
# ----------------------------------------------------------------------
class TestAccumulator:
    def test_stable_edge_has_exact_zero_difference(self):
        acc = SlidingWindowAccumulator(window=3)
        assert acc.observe(("a", "b"), 0.1)
        deltas = acc.close_step()  # t=0: warming
        assert deltas == {("a", "b"): 0.0}
        # 0.1 is the classic float that breaks (w+w+w)/3 == w; the
        # segment path must never compute it.
        for _ in range(5):
            deltas = acc.close_step()
            assert deltas.get(("a", "b"), 0.0) == 0.0
        assert acc.active_edges == 0
        assert acc.state_weight(("a", "b")) == 0.1

    def test_difference_tracks_window_mean(self):
        acc = SlidingWindowAccumulator(window=2)
        acc.observe(("a", "b"), 1.0)
        acc.close_step()  # step 0: weight 1
        acc.observe(("a", "b"), 3.0)
        acc.close_step()  # step 1: window = [1], diff = 3 - 1
        acc.observe(("a", "b"), 3.0)  # no-op re-observation
        deltas = acc.close_step()  # step 2: window = [1, 3], diff = 3 - 2
        assert deltas[("a", "b")] == pytest.approx(1.0)
        deltas = acc.close_step()  # step 3: window = [3, 3] -> stable
        assert deltas[("a", "b")] == 0.0
        assert acc.active_edges == 0

    def test_deletion_event(self):
        acc = SlidingWindowAccumulator(window=2)
        acc.observe(("a", "b"), 2.0)
        acc.close_step()
        acc.observe(("a", "b"), 0.0)
        deltas = acc.close_step()  # state 0, window mean 2 -> diff -2
        assert acc.state_weight(("a", "b")) == 0.0
        expectation = acc.state_weight(("a", "b")) - deltas[("a", "b")]
        assert expectation == pytest.approx(2.0)

    def test_same_step_override_collapses(self):
        acc = SlidingWindowAccumulator(window=2)
        acc.observe(("a", "b"), 2.0)
        acc.close_step()
        changed = acc.observe(("a", "b"), 9.0)
        assert changed
        acc.observe(("a", "b"), 2.0)  # overridden back within the step
        deltas = acc.close_step()
        assert deltas.get(("a", "b"), 0.0) == 0.0
        assert acc.active_edges == 0

    def test_window_sums_match_naive(self):
        stream = burst_event_stream(
            n_vertices=40, n_steps=12, anomaly_start=6, anomaly_duration=2, seed=1
        )
        snapshots = stream.snapshots()
        acc = SlidingWindowAccumulator(window=3)
        grouped = {t: batch for t, batch in group_by_step(stream.log.events)}
        for step in range(stream.n_steps):
            for event in grouped.get(step, ()):
                acc.observe(event.key, event.w)
            deltas = acc.close_step()
            window = snapshots[max(0, step - 3) : step]
            if not window:
                continue
            # Every pair seen anywhere must agree with the naive mean:
            # the expectation is the state minus the reported difference
            # (a stable edge reports none, its mean being its state).
            naive = mean_graph(window)
            for u, v, weight in naive.edges():
                key = edge_key(u, v)
                expectation = acc.state_weight(key) - deltas.get(key, 0.0)
                assert expectation == pytest.approx(
                    weight
                ), f"step {step} edge {key}"


# ----------------------------------------------------------------------
# engine parity against naive recompute and snapshot input
# (the `workload` fixture lives in conftest.py)
# ----------------------------------------------------------------------
class TestEngineParity:
    def _run(self, workload, backend, **kwargs):
        engine = StreamingDCSEngine(
            workload.universe, window=4, min_score=1e-6, backend=backend, **kwargs
        )
        alerts = engine.run(workload.log.events, n_steps=workload.n_steps)
        return engine, alerts

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_difference_matches_naive_rebuild(self, workload, backend):
        engine = StreamingDCSEngine(
            workload.universe, window=4, backend=backend, min_score=1e-6
        )
        snapshots = workload.snapshots()
        grouped = {t: b for t, b in group_by_step(workload.log.events)}
        for step in range(workload.n_steps):
            for event in grouped.get(step, ()):
                engine.ingest(event)
            engine.advance_to(step + 1)
            window = snapshots[max(0, step - 4) : step]
            if not window:
                continue
            naive = difference_graph(mean_graph(window), snapshots[step])
            maintained = engine.difference
            keys = {edge_key(u, v) for u, v, _ in naive.edges()}
            keys |= {edge_key(u, v) for u, v, _ in maintained.edges()}
            for u, v in keys:
                assert maintained.weight(u, v) == pytest.approx(
                    naive.weight(u, v), abs=1e-9
                ), f"step {step} edge ({u}, {v})"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    def test_exact_policy_matches_naive_recompute(self, workload, backend, measure):
        _, alerts = self._run(workload, backend, measure=measure)
        naive = snapshot_recompute(
            workload.log.events,
            workload.universe,
            n_steps=workload.n_steps,
            window=4,
            measure=measure,
            backend=backend,
            min_score=1e-6,
        )
        assert alert_keys(alerts) == alert_keys(naive)
        by_step = {a.step: a for a in naive}
        for alert in alerts:
            assert alert.score == pytest.approx(by_step[alert.step].score)

    @needs_scipy
    def test_backends_agree(self, workload):
        _, py = self._run(workload, "python")
        _, sp = self._run(workload, "sparse")
        assert alert_keys(py) == alert_keys(sp)
        for a, b in zip(py, sp):
            assert a.score == pytest.approx(b.score)

    def test_snapshot_round_trip_matches_event_log(self, workload):
        """A snapshot stream reaches the engine through events_between:
        the workload's snapshots, turned back into events, log the same
        alert bytes as the original event log."""
        events = snapshot_events(workload.snapshots())
        for backend in BACKENDS:
            for measure in ("average_degree", "affinity"):
                logs = [
                    StreamingDCSEngine(
                        workload.universe,
                        window=4,
                        min_score=1e-6,
                        backend=backend,
                        measure=measure,
                    )
                    .run(log, n_steps=workload.n_steps)
                    .json_lines()
                    for log in (events, workload.log.events)
                ]
                assert logs[0], (backend, measure)
                assert logs[0] == logs[1], (backend, measure)

    def test_burst_is_detected(self, workload):
        _, alerts = self._run(workload, "python")
        hot = [a for a in alerts if workload.is_anomalous_step(a.step)]
        quiet = [a for a in alerts if not workload.is_anomalous_step(a.step)]
        assert hot and min(a.score for a in hot) > 2 * max(
            a.score for a in quiet
        )
        flagged = set().union(*(a.subset for a in hot))
        assert flagged >= workload.anomaly_members


def _adversarial_log():
    """Expiry bursts + vertex churn.

    Three stressors the maintained answer must survive:

    * **expiry bursts** — clusters surge for two steps and are then
      re-observed at 0, so their difference contrast first spikes, then
      *flips sign* while the window mean still remembers the surge;
    * **vertex churn** — the ``b*`` vertices acquire edges and later
      lose every one of them, leaving isolated universe members whose
      stale answers must be dropped, not served;
    * a stable background pair so the difference is never empty noise.

    Steps 0..19 over a 13-vertex universe; deterministic by design.
    """
    events = []

    def ev(t, u, v, w):
        events.append(EdgeEvent(t, u, v, w))

    for t in range(0, 20, 2):  # stable background
        ev(t, "s1", "s2", 1.0)
        ev(t, "s2", "s3", 1.0)
    cluster_a = ["a1", "a2", "a3", "a4"]
    for t in (6, 7):  # burst
        for i, u in enumerate(cluster_a):
            for v in cluster_a[i + 1:]:
                ev(t, u, v, 6.0)
    for i, u in enumerate(cluster_a):  # expiry
        for v in cluster_a[i + 1:]:
            ev(8, u, v, 0.0)
    cluster_b = ["b1", "b2", "b3"]
    for i, u in enumerate(cluster_b):  # churn in
        for v in cluster_b[i + 1:]:
            ev(10, u, v, 4.0)
    for i, u in enumerate(cluster_b):  # churn out (all edges vanish)
        for v in cluster_b[i + 1:]:
            ev(12, u, v, 0.0)
    cluster_c = ["c1", "c2", "c3"]
    for t in (14, 15):  # late burst on fresh vertices
        for i, u in enumerate(cluster_c):
            for v in cluster_c[i + 1:]:
                ev(t, u, v, 5.0)
    for i, u in enumerate(cluster_c):
        for v in cluster_c[i + 1:]:
            ev(16, u, v, 0.0)
    events.sort()
    universe = (
        {"s1", "s2", "s3"} | set(cluster_a) | set(cluster_b) | set(cluster_c)
    )
    return events, universe, 20


class TestUniverseContainer:
    """An alert log is a function of the universe's members, not of the
    container they arrive in: python NewSEA's float sums follow the
    difference graph's vertex order, which both the engine and the
    snapshot baseline take from repr order."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    def test_set_list_and_reversed_list_log_the_same_bytes(
        self, backend, measure
    ):
        stream = burst_event_stream(n_vertices=80, n_steps=24, seed=5)
        # An event file's vertex set, as `repro stream` passes it: its
        # iteration order follows how read_events grew it.
        buffer = io.StringIO()
        write_events(stream.log, buffer)
        buffer.seek(0)
        containers = [
            list(stream.universe),
            read_events(buffer).universe,
            set(stream.universe),
            list(reversed(stream.universe)),
        ]
        params = dict(
            window=4, measure=measure, backend=backend, min_score=1e-6
        )
        engine_logs = [
            StreamingDCSEngine(universe, **params)
            .run(stream.log.events, n_steps=stream.n_steps)
            .json_lines()
            for universe in containers
        ]
        naive_logs = [
            snapshot_recompute(
                stream.log.events, universe, n_steps=stream.n_steps, **params
            ).json_lines()
            for universe in containers
        ]
        assert engine_logs[0]  # the burst is flagged
        assert engine_logs == [engine_logs[0]] * len(containers)
        assert naive_logs == [naive_logs[0]] * len(containers)


class TestGatedAdversarialParity:
    """Regression pins on the expiry-burst + churn log: the flagged
    structure follows the bursting cluster, and a churned-out cluster
    never resurfaces."""

    def test_expiry_burst_alerts_flag_the_bursting_cluster(self):
        events, universe, n_steps = _adversarial_log()
        engine = StreamingDCSEngine(universe, window=4, min_score=1e-6)
        alerts = engine.run(events, n_steps=n_steps)
        by_step = {a.step: a for a in alerts}
        # While cluster A bursts, it is the flagged structure.
        assert by_step[6].subset == frozenset({"a1", "a2", "a3", "a4"})
        assert by_step[7].subset == frozenset({"a1", "a2", "a3", "a4"})
        # After the churn-out at 12, the b-cluster never resurfaces.
        for step, alert in by_step.items():
            if step >= 13:
                assert not (alert.subset & {"b1", "b2", "b3"}), step


class TestEngineBehaviour:
    def test_unknown_vertex_rejected(self):
        engine = StreamingDCSEngine(["a", "b"], window=2)
        with pytest.raises(VertexNotFound):
            engine.ingest(EdgeEvent(t=0, u="a", v="zzz", w=1.0))

    def test_stale_timestamp_rejected(self):
        engine = StreamingDCSEngine(["a", "b", "c"], window=2)
        engine.ingest(EdgeEvent(t=3, u="a", v="b", w=1.0))
        with pytest.raises(InputMismatchError):
            engine.ingest(EdgeEvent(t=1, u="b", v="c", w=1.0))

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            StreamingDCSEngine([], window=2)

    def test_no_alerts_before_warmup(self):
        engine = StreamingDCSEngine(["a", "b", "c"], window=3, min_score=-1.0)
        alerts = engine.run(
            [
                EdgeEvent(t=0, u="a", v="b", w=1.0),
                EdgeEvent(t=1, u="a", v="b", w=5.0),
                EdgeEvent(t=2, u="b", v="c", w=2.0),
            ],
            n_steps=3,
        )
        assert all(a.step >= 3 for a in alerts)

    def test_quiet_stream_caches(self):
        """Once every edge is stable, answers come from the cache."""
        events = [EdgeEvent(t=0, u="a", v="b", w=1.0)]
        engine = StreamingDCSEngine(
            ["a", "b", "c"], window=2, warmup=1, min_score=0.0
        )
        engine.run(events, n_steps=12)
        stats = engine.stats
        assert stats.cache_hits > 0
        assert stats.full_solves <= 2

    def test_time_gap_closes_intermediate_steps(self):
        engine = StreamingDCSEngine(["a", "b"], window=2, warmup=1)
        engine.ingest(EdgeEvent(t=0, u="a", v="b", w=1.0))
        alerts = engine.ingest(EdgeEvent(t=6, u="a", v="b", w=9.0))
        assert engine.step == 6
        assert all(a.step < 6 for a in alerts)

    def test_run_without_n_steps_stops_after_last_event(self):
        engine = StreamingDCSEngine(["a", "b"], window=2, warmup=1)
        engine.run([EdgeEvent(t=4, u="a", v="b", w=1.0)])
        assert engine.step == 5

    def test_run_truncates_events_beyond_n_steps(self):
        """Events past the requested horizon must not leak steps/alerts."""
        engine = StreamingDCSEngine(["a", "b", "c"], window=2, warmup=1)
        alerts = engine.run(
            [
                EdgeEvent(t=0, u="a", v="b", w=1.0),
                EdgeEvent(t=2, u="a", v="b", w=9.0),
                EdgeEvent(t=8, u="b", v="c", w=9.0),  # beyond the horizon
            ],
            n_steps=3,
        )
        assert engine.step == 3
        assert all(a.step < 3 for a in alerts)
        assert engine.accumulator.state_weight(edge_key("b", "c")) == 0.0

    def test_alert_json_round_trips(self):
        alert = StreamAlert(
            step=3,
            subset=frozenset({"b", "a"}),
            score=1.25,
            measure="average_degree",
        )
        payload = json.loads(alert.to_json())
        assert payload["step"] == 3
        assert payload["subset"] == ["a", "b"]
        assert payload["size"] == 2
        assert payload["source"] == "solve"

    def test_alert_log_helpers(self):
        low = StreamAlert(step=1, subset=frozenset("a"), score=0.5, measure="m")
        high = StreamAlert(step=2, subset=frozenset("b"), score=5.0, measure="m")
        log = AlertLog([low, high])
        assert log.steps == [1, 2]
        assert log.fired(1.0).steps == [2]
        assert len(log.json_lines().splitlines()) == 2


class TestSolveDifference:
    def test_empty_difference(self):
        gd = Graph()
        gd.add_vertices("abc")
        assert solve_difference(gd, "average_degree") == []

    def test_no_positive_edge(self):
        gd = Graph.from_edges([("a", "b", -2.0)], vertices=["c"])
        assert solve_difference(gd, "average_degree") == []
        assert solve_difference(gd, "affinity") == []

    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    def test_isolated_vertices_do_not_matter(self, signed_graph, measure):
        padded = signed_graph.copy()
        for i in range(20):
            padded.add_vertex(f"pad{i}")
        bare = solve_difference(signed_graph, measure)
        assert solve_difference(padded, measure) == bare
        assert [answer.subset for answer in bare] == [{"a", "b", "c"}]

    def test_unknown_measure(self, signed_graph):
        with pytest.raises(ValueError):
            solve_difference(signed_graph, "vibes")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStreamCLI:
    def test_stream_command_emits_json(self, tmp_path, capsys):
        from repro.cli import main

        stream = burst_event_stream(
            n_vertices=40,
            n_steps=14,
            anomaly_start=8,
            anomaly_duration=2,
            seed=5,
        )
        path = tmp_path / "events.txt"
        write_events(stream.log, path)
        code = main(
            ["stream", str(path), "--window", "4", "--threshold", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records, "burst should alert"
        assert {r["step"] for r in records} == {8, 9}
        for record in records:
            assert record["score"] > 2.0
            assert set(record["subset"]) >= stream.anomaly_members

    def test_stream_rejects_empty_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(SystemExit):
            main(["stream", str(path)])


# ----------------------------------------------------------------------
# exact-zero retirement under non-integer alpha-scaled weights
# ----------------------------------------------------------------------
class TestRetirementFloatResidue:
    """An edge whose strength is a non-representable float (the shape
    ``alpha``-scaled weights take, e.g. ``0.7 * 0.3``) must still
    retire to *exactly* zero difference once its history stabilises —
    a mean rebuilt as ``(w + ... + w) / L`` would carry residue that
    keeps the edge alive forever."""

    #: weights with no exact binary representation
    ALPHA_WEIGHTS = (0.7 * 0.3, 0.1 + 0.2, 1.0 / 3.0, 0.49 * 1.1)

    def test_expiry_burst_then_reinsert_retires_exactly(self):
        window = 3
        acc = SlidingWindowAccumulator(window=window)
        key = ("a", "b")
        # Burst: a different awkward weight every step.
        for weight in self.ALPHA_WEIGHTS:
            acc.observe(key, weight)
            acc.close_step()
        # Hold the last value until every burst segment expires.
        final = self.ALPHA_WEIGHTS[-1]
        retired_delta = None
        for _ in range(window + 1):
            deltas = acc.close_step()
            if key in deltas:
                retired_delta = deltas[key]
        # The last report for the edge is its retirement: exactly 0.0,
        # not float residue near zero.
        assert retired_delta == 0.0
        assert acc.active_edges == 0
        assert acc.state_weight(key) - retired_delta == final
        # Re-insert (same awkward scale), burst again, re-stabilise:
        # the second retirement must be exact too.
        acc.observe(key, final * 2)
        acc.close_step()
        acc.observe(key, final)  # back to the stable value
        acc.close_step()
        retired_delta = None
        for _ in range(window + 1):
            deltas = acc.close_step()
            if key in deltas:
                retired_delta = deltas[key]
        assert retired_delta == 0.0
        assert acc.active_edges == 0
        assert acc.state_weight(key) == final

    def test_engine_difference_graph_carries_no_residue(self):
        """Through the full engine: after the window passes a burst of
        alpha-scaled weights, the maintained difference graph is empty
        (no epsilon edges scheduling pointless solves)."""
        window = 3
        engine = StreamingDCSEngine({"a", "b", "c"}, window=window)
        for step, weight in enumerate(self.ALPHA_WEIGHTS):
            engine.ingest(EdgeEvent(step, "a", "b", weight))
        engine.advance_to(len(self.ALPHA_WEIGHTS) + window + 1)
        gd = engine.difference
        assert all(weight == 0.0 for _, _, weight in gd.edges())
        assert gd.num_edges == 0
