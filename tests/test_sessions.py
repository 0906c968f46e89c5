"""Concurrency and fault tests for the multi-tenant stream sessions.

The session layer is the first *stateful* serving surface — concurrent
tenants mutate resident engines behind one ``ServiceApp`` — so this
suite leans on threads: interleaved event batches, polls racing
ingestion, create/close races, and solver faults injected through the
backend registry.  Single-tenant semantics (lifecycle, cursor rules,
batch validation) are pinned first so the concurrent failures, when
they come, point at the layer and not the vocabulary.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import threading
import time

import pytest

from repro.datasets.streaming import burst_event_stream
from repro.engine.registry import (
    SolverBackend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.graph.generators import random_signed_graph
from repro.graph.io import write_edge_list
from repro.graph.sparse import scipy_available
from repro.service import GraphRegistry, ServiceApp
from repro.service.sessions import SessionFailedError, SessionManager
from repro.stream.engine import replay_events, snapshot_recompute
from repro.stream.events import EdgeEvent

UNIVERSE = ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def make_app(**kwargs) -> ServiceApp:
    kwargs.setdefault("scale", 0.0)
    return ServiceApp(**kwargs)


def create_session(app: ServiceApp, **body) -> str:
    body.setdefault("universe", UNIVERSE)
    body.setdefault("window", 3)
    status, payload = app.request("POST", "/v1/stream/sessions", body)
    assert status == 200, payload
    return payload["session"]


def burst_records(n_steps: int = 12, heavy=(6, 8)):
    """A two-edge stream whose (a, b) edge spikes over *heavy* steps."""
    records = []
    for t in range(n_steps):
        w = 5.0 if heavy[0] <= t <= heavy[1] else 1.0
        records.append({"t": t, "u": "a", "v": "b", "w": w})
        records.append({"t": t, "u": "b", "v": "c", "w": 1.0})
    return records


def feed(app: ServiceApp, sid: str, records, chunk: int = 5):
    """Post *records* in batches; returns every alert the posts saw."""
    alerts = []
    for start in range(0, len(records), chunk):
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": records[start : start + chunk]},
        )
        assert status == 200, payload
        alerts.extend(payload["alerts"])
    return alerts


def feed_keys(feed_alerts):
    return {(a["step"], tuple(a["subset"])) for a in feed_alerts}


def reference_keys(records, n_steps, window=3, min_score=0.0):
    events = [EdgeEvent(r["t"], r["u"], r["v"], r["w"]) for r in records]
    alerts = snapshot_recompute(
        events, UNIVERSE, n_steps=n_steps, window=window, min_score=min_score
    )
    return {
        (a.step, tuple(sorted(str(v) for v in a.subset))) for a in alerts
    }


@contextlib.contextmanager
def held_batch(app: ServiceApp, sid: str, body, monkeypatch):
    """Post *body* to *sid* on a thread and hold the batch inside its
    session lock until the block exits; yields the list its
    ``(status, payload)`` lands in.

    A timer releases the hold after 2 s, so a caller that waits for the
    batch fails its timing check instead of hanging.
    """
    engine = app.sessions.get(sid).engine
    real_advance = engine.advance_to
    entered = threading.Event()
    release = threading.Event()

    def held_advance(step):
        if not entered.is_set():
            entered.set()
            release.wait()
        return real_advance(step)

    monkeypatch.setattr(engine, "advance_to", held_advance)
    posted = []
    batch = threading.Thread(
        target=lambda: posted.append(
            app.request("POST", f"/v1/stream/sessions/{sid}/events", body)
        )
    )
    backstop = threading.Timer(2.0, release.set)
    backstop.start()
    batch.start()
    try:
        assert entered.wait(timeout=5.0)
        yield posted
    finally:
        release.set()
        backstop.cancel()
        batch.join(timeout=10)
    assert not batch.is_alive()


class LoopThread:
    """One background event loop shared by every concurrent caller.

    This is the server's shape: every connection runs on one loop.
    Threads submit coroutines with ``run_coroutine_threadsafe``.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self._thread.start()

    def call(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def submit(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


@pytest.fixture
def loop_thread():
    lt = LoopThread()
    yield lt
    lt.close()


@pytest.fixture
def app():
    return make_app()


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_create_echoes_config(self, app):
        status, payload = app.request(
            "POST",
            "/v1/stream/sessions",
            {
                "universe": UNIVERSE,
                "window": 4,
                "threshold": 0.5,
                "k": 2,
            },
        )
        assert status == 200
        config = payload["config"]
        assert config["window"] == 4
        assert config["threshold"] == 0.5
        assert config["k"] == 2
        assert config["universe_size"] == len(UNIVERSE)
        assert payload["session"].startswith("s-")

    def test_create_from_registered_graph(self, app):
        names = {i: f"v{i:02d}" for i in range(12)}
        g1 = (
            random_signed_graph(12, 0.3, seed=1)
            .positive_part()
            .relabeled(names)
        )
        g2 = (
            random_signed_graph(12, 0.3, seed=2)
            .positive_part()
            .relabeled(names)
        )
        for v in list(g1.vertices()) + list(g2.vertices()):
            g1.add_vertex(v)
            g2.add_vertex(v)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_edge_list(g1, buf1)
        write_edge_list(g2, buf2)
        status, _ = app.request(
            "POST",
            "/v1/graphs",
            {"name": "base", "g1": buf1.getvalue(), "g2": buf2.getvalue()},
        )
        assert status == 200
        status, payload = app.request(
            "POST", "/v1/stream/sessions", {"graph": "base"}
        )
        assert status == 200
        assert payload["config"]["graph"] == "base"
        assert payload["config"]["universe_size"] == g1.num_vertices

    def test_create_needs_universe_or_graph(self, app):
        status, payload = app.request("POST", "/v1/stream/sessions", {})
        assert status == 400
        assert "universe" in payload["error"]

    def test_create_rejects_both_sources(self, app):
        status, _ = app.request(
            "POST",
            "/v1/stream/sessions",
            {"universe": UNIVERSE, "graph": "base"},
        )
        assert status == 400

    def test_create_rejects_non_string_universe(self, app):
        status, _ = app.request(
            "POST", "/v1/stream/sessions", {"universe": [1, 2, 3]}
        )
        assert status == 400

    def test_create_unknown_graph_404(self, app):
        status, _ = app.request(
            "POST", "/v1/stream/sessions", {"graph": "never-uploaded"}
        )
        assert status == 404

    @pytest.mark.parametrize(
        "bad",
        [
            {"measure": "bogus"},
            {"policy": "sloppy"},
            {"k": 0},
            {"window": 0},
            {"k": "three"},
            # A NaN floor would pass every answer (score <= nan is
            # False) and be echoed back in the config as invalid JSON.
            {"threshold": float("nan")},
            {"threshold": float("inf")},
            # Unknown fields are rejected, not silently dropped.
            {"treshold": 2.0},
            {"hold_margin": 0.5},
            # Refused at creation, not failed at the first dirty step.
            {"measure": "affinity", "tol_scale": 0},
            {"measure": "affinity", "tol_scale": -1},
        ],
    )
    def test_create_rejects_bad_config(self, app, bad):
        status, _ = app.request(
            "POST", "/v1/stream/sessions", {"universe": UNIVERSE, **bad}
        )
        assert status == 400

    def test_list_shows_sessions(self, app):
        first = create_session(app)
        second = create_session(app)
        status, payload = app.request("GET", "/v1/stream/sessions")
        assert status == 200
        assert payload["sessions"] == [first, second]
        assert payload["stats"]["active"] == 2

    def test_info_reports_state(self, app):
        sid = create_session(app)
        feed(app, sid, burst_records(6), chunk=100)
        status, payload = app.request("GET", f"/v1/stream/sessions/{sid}")
        assert status == 200
        assert payload["session"] == sid
        assert payload["events"] == 12
        assert payload["step"] == 5  # last event opens step 5
        assert payload["failed"] is None
        assert payload["stats"]["steps"] == 5

    def test_info_unknown_404(self, app):
        status, _ = app.request("GET", "/v1/stream/sessions/s-99")
        assert status == 404

    def test_delete_closes(self, app):
        sid = create_session(app)
        status, payload = app.request("DELETE", f"/v1/stream/sessions/{sid}")
        assert status == 200
        assert payload["closed"] == sid
        status, payload = app.request("GET", "/healthz")
        assert payload["sessions"] == 0

    def test_delete_twice_404(self, app):
        sid = create_session(app)
        app.request("DELETE", f"/v1/stream/sessions/{sid}")
        status, _ = app.request("DELETE", f"/v1/stream/sessions/{sid}")
        assert status == 404

    def test_unsupported_method_405(self, app):
        sid = create_session(app)
        status, _ = app.request("PUT", f"/v1/stream/sessions/{sid}")
        assert status == 405

    def test_session_limit_answers_429(self):
        app = make_app(max_sessions=2)
        create_session(app)
        create_session(app)
        status, payload = app.request(
            "POST", "/v1/stream/sessions", {"universe": UNIVERSE}
        )
        assert status == 429
        assert "limit" in payload["error"]

    def test_limit_429_carries_retry_after(self, loop_thread):
        app = make_app(max_sessions=1)
        create_session(app)
        response = loop_thread.call(
            app.dispatch(
                "POST", "/v1/stream/sessions", {"universe": UNIVERSE}
            )
        )
        assert response.status == 429
        assert response.headers.get("Retry-After") == "1"

    def test_closing_frees_a_slot(self):
        app = make_app(max_sessions=1)
        sid = create_session(app)
        status, _ = app.request(
            "POST", "/v1/stream/sessions", {"universe": UNIVERSE}
        )
        assert status == 429
        app.request("DELETE", f"/v1/stream/sessions/{sid}")
        assert create_session(app)

    def test_idle_sessions_expire(self):
        app = make_app(session_ttl=10.0)
        sid = create_session(app)
        manager = app.sessions
        stale = manager.expire_idle(now=time.monotonic() + 11.0)
        assert stale == [sid]
        assert manager.active == 0
        assert manager.expired == 1

    def test_use_refreshes_idle_clock(self):
        app = make_app(session_ttl=10.0)
        sid = create_session(app)
        base = time.monotonic()
        manager = app.sessions
        # Touch at +8s, then check at +16s: still within ttl of the
        # touch, so the session must survive.
        manager.get(sid).last_used = base + 8.0
        assert manager.expire_idle(now=base + 16.0) == []
        assert manager.expire_idle(now=base + 19.0) == [sid]


# ----------------------------------------------------------------------
# ingestion and validation
# ----------------------------------------------------------------------
class TestIngestion:
    def test_alerts_match_snapshot_recompute(self, app):
        sid = create_session(app)
        records = burst_records()
        seen = feed(app, sid, records)
        # close the final step so the last alert can fire
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 11, "u": "a", "v": "b", "w": 1.0}],
             "advance_to": 12},
        )
        assert status == 200
        seen.extend(payload["alerts"])
        assert feed_keys(seen) == reference_keys(records, n_steps=12)

    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param(
                "sparse",
                marks=pytest.mark.skipif(
                    not scipy_available(), reason="sparse needs SciPy"
                ),
            ),
        ],
    )
    def test_feed_equals_replay_events(self, app, backend, measure):
        """A log posted through a session in chunks leaves the feed
        that replay_events gives on the same log, entry for entry."""
        stream = burst_event_stream(n_vertices=80, n_steps=24, seed=5)
        config = {
            "window": 4,
            "measure": measure,
            "backend": backend,
        }
        sid = create_session(app, universe=stream.universe, **config)
        records = [
            {"t": e.t, "u": e.u, "v": e.v, "w": e.w}
            for e in stream.log.events
        ]
        chunks = [records[i : i + 37] for i in range(0, len(records), 37)]
        for index, chunk in enumerate(chunks):
            body = {"events": chunk}
            if index == len(chunks) - 1:
                body["advance_to"] = stream.n_steps
            status, payload = app.request(
                "POST", f"/v1/stream/sessions/{sid}/events", body
            )
            assert status == 200, payload
        status, payload = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts"
        )
        assert status == 200
        expected, _ = replay_events(
            stream.log,
            n_steps=stream.n_steps,
            universe=stream.universe,
            **config,
        )
        assert len(expected) > 0
        assert [
            (a["step"], a["subset"], a["score"], a["source"])
            for a in payload["alerts"]
        ] == [
            (a.step, sorted(str(v) for v in a.subset), a.score, a.source)
            for a in expected
        ]

    def test_advance_to_closes_silent_steps(self, app):
        sid = create_session(app)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 0, "u": "a", "v": "b", "w": 1.0}],
             "advance_to": 4},
        )
        assert status == 200
        assert payload["step"] == 4

    def test_default_weight_is_one(self, app):
        sid = create_session(app)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 0, "u": "a", "v": "b"}]},
        )
        assert status == 200

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"events": []},
            {"events": "not-a-list"},
            {"events": [["t", 0]]},
            {"events": [{"t": 0, "u": "a"}]},
            {"events": [{"t": 0, "u": "a", "v": "b", "bogus": 1}]},
            {"events": [{"t": True, "u": "a", "v": "b"}]},
            {"events": [{"t": 0.5, "u": "a", "v": "b"}]},
            {"events": [{"t": 0, "u": "a", "v": "b", "w": "heavy"}]},
            {"events": [{"t": 0, "u": "a", "v": "a"}]},
            {"events": [{"t": -1, "u": "a", "v": "b"}]},
        ],
    )
    def test_malformed_batches_400(self, app, body):
        sid = create_session(app)
        status, _ = app.request(
            "POST", f"/v1/stream/sessions/{sid}/events", body
        )
        assert status == 400

    def test_unknown_vertex_400_leaves_session_clean(self, app):
        sid = create_session(app)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {
                "events": [
                    {"t": 0, "u": "a", "v": "b", "w": 1.0},
                    {"t": 0, "u": "a", "v": "zz", "w": 1.0},
                ]
            },
        )
        assert status == 400
        assert "universe" in payload["error"]
        # nothing applied: the valid prefix must not have ingested
        _, payload = app.request("GET", f"/v1/stream/sessions/{sid}")
        assert payload["events"] == 0
        assert payload["step"] == 0
        assert payload["failed"] is None

    def test_out_of_order_within_batch_400(self, app):
        sid = create_session(app)
        status, _ = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {
                "events": [
                    {"t": 3, "u": "a", "v": "b"},
                    {"t": 1, "u": "a", "v": "b"},
                ]
            },
        )
        assert status == 400

    def test_behind_session_clock_400(self, app):
        sid = create_session(app)
        feed(app, sid, [{"t": 5, "u": "a", "v": "b", "w": 1.0}])
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 2, "u": "a", "v": "b", "w": 1.0}]},
        )
        assert status == 400
        assert "clock" in payload["error"]

    def test_advance_to_behind_clock_400(self, app):
        sid = create_session(app)
        feed(app, sid, [{"t": 5, "u": "a", "v": "b", "w": 1.0}])
        status, _ = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 5, "u": "c", "v": "d", "w": 1.0}],
             "advance_to": 3},
        )
        assert status == 400

    def test_events_to_missing_session_404(self, app):
        status, _ = app.request(
            "POST",
            "/v1/stream/sessions/s-404/events",
            {"events": [{"t": 0, "u": "a", "v": "b"}]},
        )
        assert status == 404


# ----------------------------------------------------------------------
# the alert cursor
# ----------------------------------------------------------------------
class TestAlertCursor:
    def _session_with_alerts(self, app):
        sid = create_session(app)
        records = burst_records()
        feed(app, sid, records)
        app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 11, "u": "a", "v": "b", "w": 1.0}],
             "advance_to": 12},
        )
        return sid

    def test_cursor_zero_replays_everything(self, app):
        sid = self._session_with_alerts(app)
        status, payload = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts"
        )
        assert status == 200
        assert payload["alerts"]
        assert payload["cursor"] == len(payload["alerts"])

    def test_alerts_carry_engine_phase_stats(self, app):
        sid = self._session_with_alerts(app)
        status, payload = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts"
        )
        assert status == 200
        stats = payload["stats"]
        assert stats["steps"] > 0
        assert stats["events"] > 0
        assert set(stats["dirty"]) == {"touched"}
        last = stats["last_step"]
        assert last is not None
        assert last["seconds"] >= 0.0
        assert last["source"]

    def test_cursor_resumes_after_read(self, app):
        sid = self._session_with_alerts(app)
        _, first = app.request("GET", f"/v1/stream/sessions/{sid}/alerts")
        _, second = app.request(
            "GET",
            f"/v1/stream/sessions/{sid}/alerts?cursor={first['cursor']}",
        )
        assert second["alerts"] == []
        assert second["cursor"] == first["cursor"]

    def test_cursor_is_monotone_across_batches(self, app):
        sid = create_session(app)
        cursors = []
        for start in range(0, 12, 3):
            records = burst_records()[2 * start : 2 * (start + 3)]
            status, payload = app.request(
                "POST",
                f"/v1/stream/sessions/{sid}/events",
                {"events": records},
            )
            assert status == 200
            cursors.append(payload["cursor"])
        assert cursors == sorted(cursors)

    def test_partial_cursor_reads_tile_the_feed(self, app):
        sid = self._session_with_alerts(app)
        _, whole = app.request("GET", f"/v1/stream/sessions/{sid}/alerts")
        collected = []
        cursor = 0
        for _ in range(len(whole["alerts"])):
            _, chunk = app.request(
                "GET",
                f"/v1/stream/sessions/{sid}/alerts?cursor={cursor}",
            )
            if not chunk["alerts"]:
                break
            collected.append(chunk["alerts"][0])
            cursor += 1
            # deliberately re-read from cursor, taking one at a time
        assert collected == whole["alerts"]

    def test_cursor_out_of_range_400(self, app):
        sid = create_session(app)
        status, _ = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts?cursor=7"
        )
        assert status == 400

    def test_negative_cursor_400(self, app):
        sid = create_session(app)
        status, _ = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts?cursor=-1"
        )
        assert status == 400

    def test_non_numeric_cursor_400(self, app):
        sid = create_session(app)
        status, _ = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts?cursor=abc"
        )
        assert status == 400

    @pytest.mark.parametrize("wait", ["nan", "inf"])
    def test_non_finite_wait_400(self, app, wait):
        """A NaN deadline is never reached, so the poll would ignore
        the long-poll cap; the route must refuse it at once."""
        sid = create_session(app)

        async def poll():
            return await asyncio.wait_for(
                app.dispatch(
                    "GET", f"/v1/stream/sessions/{sid}/alerts?wait={wait}"
                ),
                2.0,
            )

        assert asyncio.run(poll()).status == 400

    def test_alerts_for_missing_session_404(self, app):
        status, _ = app.request("GET", "/v1/stream/sessions/s-1/alerts")
        assert status == 404

    def test_long_poll_returns_existing_alerts_immediately(self, app):
        sid = self._session_with_alerts(app)
        start = time.perf_counter()
        status, payload = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts?wait=5"
        )
        assert status == 200
        assert payload["alerts"]
        assert time.perf_counter() - start < 2.0

    def test_long_poll_expires_empty(self, app):
        sid = create_session(app)
        start = time.perf_counter()
        status, payload = app.request(
            "GET", f"/v1/stream/sessions/{sid}/alerts?wait=0.1"
        )
        assert status == 200
        assert payload["alerts"] == []
        assert time.perf_counter() - start >= 0.1

    def test_poll_does_not_wait_for_a_running_batch(self, app, monkeypatch):
        """A batch holds its session's lock through its solves; a poll
        answers at once with what the last finished batch published."""
        sid = create_session(app)
        events = f"/v1/stream/sessions/{sid}/events"
        alerts = f"/v1/stream/sessions/{sid}/alerts"
        records = burst_records()
        status, before = app.request(
            "POST", events, {"events": records[:16], "advance_to": 8}
        )
        assert status == 200 and before["alerts"]
        body = {"events": records[16:], "advance_to": 12}
        with held_batch(app, sid, body, monkeypatch) as posted:
            start = time.perf_counter()
            status, polled = app.request("GET", alerts)
            elapsed = time.perf_counter() - start
        assert status == 200
        assert elapsed < 0.5
        assert polled["alerts"] == before["alerts"]
        assert (polled["cursor"], polled["step"]) == (
            before["cursor"],
            before["step"],
        )
        assert posted[0][0] == 200 and posted[0][1]["alerts"]
        _, after = app.request("GET", f"{alerts}?cursor={polled['cursor']}")
        assert after["alerts"] == posted[0][1]["alerts"]
        assert after["step"] == 12

    def test_info_and_close_do_not_wait_for_a_running_batch(
        self, app, monkeypatch
    ):
        """GET and DELETE answer at once with the summary the last
        finished batch published."""
        sid = create_session(app)
        path = f"/v1/stream/sessions/{sid}"
        records = burst_records()
        status, before = app.request(
            "POST", f"{path}/events", {"events": records[:16], "advance_to": 8}
        )
        assert status == 200
        _, published = app.request("GET", path)
        body = {"events": records[16:], "advance_to": 12}
        with held_batch(app, sid, body, monkeypatch) as posted:
            start = time.perf_counter()
            info_status, info = app.request("GET", path)
            info_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            close_status, closed = app.request("DELETE", path)
            close_elapsed = time.perf_counter() - start
        assert (info_status, close_status) == (200, 200)
        assert info_elapsed < 0.5
        assert close_elapsed < 0.5
        assert info["step"] == closed["final"]["step"] == before["step"]
        assert info["topk"] == closed["final"]["topk"] == published["topk"]
        assert info["stats"] == published["stats"]
        assert posted[0][0] == 200

    def test_long_poll_wakes_on_concurrent_ingest(self, app, loop_thread):
        sid = create_session(app)
        poll = loop_thread.submit(
            app.dispatch("GET", f"/v1/stream/sessions/{sid}/alerts?wait=10")
        )
        time.sleep(0.1)
        records = burst_records()
        loop_thread.call(
            app.dispatch(
                "POST",
                f"/v1/stream/sessions/{sid}/events",
                {"events": records + [
                    {"t": 11, "u": "a", "v": "b", "w": 1.0}],
                 "advance_to": 12},
            )
        )
        response = poll.result(timeout=10)
        assert response.status == 200
        assert response.payload["alerts"]


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_parallel_tenants_match_serial_replay(self, app, loop_thread):
        """Eight threads each drive their own session; every tenant's
        final feed must equal the single-tenant reference."""
        n_tenants = 8
        records = burst_records()
        tail = [{"t": 11, "u": "a", "v": "b", "w": 1.0}]
        sids = [create_session(app) for _ in range(n_tenants)]
        errors = []

        def drive(sid: str) -> None:
            try:
                for start in range(0, len(records), 4):
                    response = loop_thread.call(
                        app.dispatch(
                            "POST",
                            f"/v1/stream/sessions/{sid}/events",
                            {"events": records[start : start + 4]},
                        )
                    )
                    assert response.status == 200, response.payload
                response = loop_thread.call(
                    app.dispatch(
                        "POST",
                        f"/v1/stream/sessions/{sid}/events",
                        {"events": tail, "advance_to": 12},
                    )
                )
                assert response.status == 200, response.payload
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(sid,)) for sid in sids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        expected = reference_keys(records + tail, n_steps=12)
        for sid in sids:
            status, payload = app.request(
                "GET", f"/v1/stream/sessions/{sid}/alerts"
            )
            assert status == 200
            assert feed_keys(payload["alerts"]) == expected

    def test_interleaved_batches_one_session(self, loop_thread):
        """Many threads hammer one session inside one open step; the
        engine must see every event exactly once."""
        n_threads, per_thread = 6, 10
        universe = [f"u{i}" for i in range(n_threads)] + [
            f"x{i}" for i in range(n_threads)
        ]
        app = make_app()
        status, payload = app.request(
            "POST", "/v1/stream/sessions", {"universe": universe}
        )
        sid = payload["session"]
        statuses = []

        def hammer(i: int) -> None:
            for j in range(per_thread):
                response = loop_thread.call(
                    app.dispatch(
                        "POST",
                        f"/v1/stream/sessions/{sid}/events",
                        {
                            "events": [
                                {
                                    "t": 0,
                                    "u": f"u{i}",
                                    "v": f"x{i}",
                                    "w": float(j + 1),
                                }
                            ]
                        },
                    )
                )
                statuses.append(response.status)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert statuses == [200] * (n_threads * per_thread)
        _, payload = app.request("GET", f"/v1/stream/sessions/{sid}")
        assert payload["events"] == n_threads * per_thread
        # per-edge last-write-wins is deterministic here: each thread
        # owns its edge, so the final open-step state is w=per_thread
        manager = app.sessions
        session = manager.get(sid)
        for i in range(n_threads):
            assert session.engine.accumulator.state_weight(
                tuple(sorted((f"u{i}", f"x{i}")))
            ) == float(per_thread)

    def test_create_close_race_keeps_counts_consistent(
        self, app, loop_thread
    ):
        n_threads, rounds = 4, 6
        errors = []

        def churn() -> None:
            try:
                for _ in range(rounds):
                    response = loop_thread.call(
                        app.dispatch(
                            "POST",
                            "/v1/stream/sessions",
                            {"universe": UNIVERSE},
                        )
                    )
                    assert response.status == 200
                    sid = response.payload["session"]
                    response = loop_thread.call(
                        app.dispatch(
                            "DELETE", f"/v1/stream/sessions/{sid}"
                        )
                    )
                    assert response.status == 200
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=churn) for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        manager = app.sessions
        assert manager.active == 0
        assert manager.created == n_threads * rounds
        assert manager.closed == n_threads * rounds
        assert app.registry.charged_cells == 0

    def test_polling_during_ingest_is_monotone(self, app, loop_thread):
        sid = create_session(app)
        records = burst_records(24, heavy=(4, 20))
        stop = threading.Event()
        observed = []
        failures = []

        def poll() -> None:
            try:
                while not stop.is_set():
                    response = loop_thread.call(
                        app.dispatch(
                            "GET", f"/v1/stream/sessions/{sid}/alerts"
                        )
                    )
                    assert response.status == 200
                    observed.append(
                        (response.payload["cursor"],
                         tuple(feed_keys(response.payload["alerts"]))),
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        reader = threading.Thread(target=poll)
        reader.start()
        try:
            for start in range(0, len(records), 2):
                response = loop_thread.call(
                    app.dispatch(
                        "POST",
                        f"/v1/stream/sessions/{sid}/events",
                        {"events": records[start : start + 2]},
                    )
                )
                assert response.status == 200
        finally:
            stop.set()
            reader.join(timeout=30)
        assert not failures
        cursors = [cursor for cursor, _ in observed]
        assert cursors == sorted(cursors)
        # cursor=0 reads replay a growing prefix: later reads contain
        # every key an earlier read contained
        for earlier, later in zip(observed, observed[1:]):
            assert set(earlier[1]) <= set(later[1])

    def test_close_during_a_batch_refunds_its_charge(self, app, monkeypatch):
        """A batch that finishes after its session closed must not
        charge the registry again: nothing would ever refund it."""
        sid = create_session(app)
        body = {"events": burst_records(), "advance_to": 12}
        with held_batch(app, sid, body, monkeypatch) as posted:
            status, _ = app.request("DELETE", f"/v1/stream/sessions/{sid}")
            assert status == 200
        assert posted[0][0] == 200
        assert app.sessions.active == 0
        assert app.registry.charged_cells == 0

    def test_session_charges_shed_warm_graphs_under_load(self):
        registry = GraphRegistry(capacity=4, scale=0.0, budget_cells=120)
        app = make_app(registry=registry)
        names = {i: f"v{i:02d}" for i in range(10)}
        for slot in range(2):
            g1 = (
                random_signed_graph(10, 0.3, seed=slot)
                .positive_part()
                .relabeled(names)
            )
            g2 = (
                random_signed_graph(10, 0.3, seed=slot + 50)
                .positive_part()
                .relabeled(names)
            )
            for v in list(g1.vertices()) + list(g2.vertices()):
                g1.add_vertex(v)
                g2.add_vertex(v)
            buf1, buf2 = io.StringIO(), io.StringIO()
            write_edge_list(g1, buf1)
            write_edge_list(g2, buf2)
            status, _ = app.request(
                "POST",
                "/v1/graphs",
                {
                    "name": f"g{slot}",
                    "g1": buf1.getvalue(),
                    "g2": buf2.getvalue(),
                },
            )
            assert status == 200
        assert registry.warm_count == 2
        before = registry.evictions
        # a big tenant arrives: its charge must push warm entries out
        status, payload = app.request(
            "POST",
            "/v1/stream/sessions",
            {"universe": [f"n{i}" for i in range(200)]},
        )
        assert status == 200
        assert registry.warm_count == 1  # shed to the floor, never to 0
        assert registry.evictions > before
        assert registry.charged_cells >= 200
        app.request(
            "DELETE", f"/v1/stream/sessions/{payload['session']}"
        )
        assert registry.charged_cells == 0

    def test_ingest_grows_the_session_charge(self, app):
        # Measure mid-burst: the spike keeps change-point history and a
        # positive difference edge alive, so the session's resident
        # footprint — and hence its registry charge — must exceed the
        # just-created baseline.  (A fully quiet stream would retire
        # back to the baseline; that is shedding working correctly,
        # not a missing charge.)
        sid = create_session(app)
        base = app.registry.charged_cells
        feed(app, sid, burst_records(8), chunk=100)
        assert app.registry.charged_cells > base


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class _FlakyPeel(SolverBackend):
    """Delegates peeling to the python backend, then starts raising."""

    name = "flaky-peel"

    def __init__(self, fail_after: int) -> None:
        self.fail_after = fail_after
        self.calls = 0

    def peel(self, graph, adjacency=None):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected solver fault")
        return get_backend("python").peel(graph, adjacency)


class _HangingPeel(SolverBackend):
    """Blocks inside the solve long enough to trip a request deadline."""

    name = "hanging-peel"

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def peel(self, graph, adjacency=None):
        time.sleep(self.seconds)
        return get_backend("python").peel(graph, adjacency)


@pytest.fixture
def flaky_backend():
    backend = _FlakyPeel(fail_after=1)
    register_backend(backend, replace=True)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def hanging_backend():
    backend = _HangingPeel(seconds=1.0)
    register_backend(backend, replace=True)
    yield backend
    unregister_backend(backend.name)


class TestFaultInjection:
    def _alert_step(self):
        # two quiet steps then a spike: first solve at step 2 (warmup
        # passed, dirty), second solve on the next spike
        return [
            [{"t": t, "u": "a", "v": "b", "w": 1.0} for t in range(2)],
            [{"t": 2, "u": "a", "v": "b", "w": 9.0},
             {"t": 3, "u": "a", "v": "b", "w": 9.0}],
            [{"t": 4, "u": "a", "v": "b", "w": 20.0},
             {"t": 5, "u": "a", "v": "b", "w": 1.0}],
        ]

    def test_solver_fault_fails_only_its_session(self, app, flaky_backend):
        victim = create_session(app, backend=flaky_backend.name, window=2)
        bystander = create_session(app, window=2)
        batches = self._alert_step()
        outcomes = []
        for batch in batches:
            status, payload = app.request(
                "POST",
                f"/v1/stream/sessions/{victim}/events",
                {"events": batch},
            )
            outcomes.append(status)
        assert 422 in outcomes
        # the bystander streams on, unaffected
        for batch in batches:
            status, _ = app.request(
                "POST",
                f"/v1/stream/sessions/{bystander}/events",
                {"events": batch},
            )
            assert status == 200
        status, payload = app.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_failed_session_answers_409(self, app, flaky_backend):
        sid = create_session(app, backend=flaky_backend.name, window=2)
        for batch in self._alert_step():
            app.request(
                "POST",
                f"/v1/stream/sessions/{sid}/events",
                {"events": batch},
            )
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 9, "u": "a", "v": "b", "w": 1.0}]},
        )
        assert status == 409
        assert "failed" in payload["error"]

    def test_fault_recorded_in_metrics_and_info(self, app, flaky_backend):
        sid = create_session(app, backend=flaky_backend.name, window=2)
        for batch in self._alert_step():
            app.request(
                "POST",
                f"/v1/stream/sessions/{sid}/events",
                {"events": batch},
            )
        _, info = app.request("GET", f"/v1/stream/sessions/{sid}")
        assert info["failed"] is not None
        assert "injected solver fault" in info["failed"]
        _, metrics = app.request("GET", "/metrics")
        assert metrics["queries"]["error"] >= 1
        assert metrics["sessions"]["failed"] == 1

    def test_failed_session_still_closes(self, app, flaky_backend):
        sid = create_session(app, backend=flaky_backend.name, window=2)
        for batch in self._alert_step():
            app.request(
                "POST",
                f"/v1/stream/sessions/{sid}/events",
                {"events": batch},
            )
        status, payload = app.request(
            "DELETE", f"/v1/stream/sessions/{sid}"
        )
        assert status == 200
        assert payload["final"]["failed"] is not None
        assert app.sessions.active == 0

    def test_fault_preserves_bystander_alert_stream(
        self, app, flaky_backend
    ):
        victim = create_session(app, backend=flaky_backend.name, window=3)
        bystander = create_session(app, window=3)
        records = burst_records()
        tail = [{"t": 11, "u": "a", "v": "b", "w": 1.0}]
        for start in range(0, len(records), 4):
            app.request(
                "POST",
                f"/v1/stream/sessions/{victim}/events",
                {"events": records[start : start + 4]},
            )
            status, _ = app.request(
                "POST",
                f"/v1/stream/sessions/{bystander}/events",
                {"events": records[start : start + 4]},
            )
            assert status == 200
        status, _ = app.request(
            "POST",
            f"/v1/stream/sessions/{bystander}/events",
            {"events": tail, "advance_to": 12},
        )
        assert status == 200
        _, payload = app.request(
            "GET", f"/v1/stream/sessions/{bystander}/alerts"
        )
        assert feed_keys(payload["alerts"]) == reference_keys(
            records + tail, n_steps=12
        )

    def test_hanging_solver_times_out_504(self, app, hanging_backend):
        sid = create_session(app, backend=hanging_backend.name, window=2)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {
                "events": [
                    {"t": 0, "u": "a", "v": "b", "w": 1.0},
                    {"t": 1, "u": "a", "v": "b", "w": 1.0},
                    {"t": 2, "u": "a", "v": "b", "w": 9.0},
                    {"t": 3, "u": "a", "v": "b", "w": 9.0},
                ],
                "timeout": 0.1,
            },
        )
        assert status == 504
        assert payload["status"] == "timeout"
        # liveness after the hang: the loop never blocked
        status, payload = app.request("GET", "/healthz")
        assert status == 200
        _, metrics = app.request("GET", "/metrics")
        assert metrics["queries"]["timeout"] >= 1

    def test_timeout_does_not_mark_session_failed(
        self, app, hanging_backend
    ):
        sid = create_session(app, backend=hanging_backend.name, window=2)
        app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {
                "events": [
                    {"t": 0, "u": "a", "v": "b", "w": 1.0},
                    {"t": 1, "u": "a", "v": "b", "w": 1.0},
                    {"t": 2, "u": "a", "v": "b", "w": 9.0},
                    {"t": 3, "u": "a", "v": "b", "w": 9.0},
                ],
                "timeout": 0.1,
            },
        )
        # the abandoned solve finishes in the background; the session
        # is slow, not broken
        time.sleep(1.2)
        assert app.sessions.get(sid).failed is None

    def test_manager_raises_session_failed_directly(self, flaky_backend):
        manager = SessionManager(GraphRegistry(scale=0.0))
        session = manager.create(
            universe=UNIVERSE, backend=flaky_backend.name, window=2
        )
        events = [
            EdgeEvent(0, "a", "b", 1.0),
            EdgeEvent(1, "a", "b", 1.0),
            EdgeEvent(2, "a", "b", 9.0),
            EdgeEvent(3, "a", "b", 9.0),
            EdgeEvent(4, "a", "b", 20.0),
            EdgeEvent(5, "a", "b", 1.0),
        ]
        with pytest.raises(RuntimeError, match="injected"):
            manager.apply_events(session.sid, events)
        with pytest.raises(SessionFailedError):
            manager.apply_events(
                session.sid, [EdgeEvent(9, "a", "b", 1.0)]
            )
        assert manager.failures == 1


# ----------------------------------------------------------------------
# per-tenant parity
# ----------------------------------------------------------------------
class TestPolicyParity:
    def _drive(self, app, sid, records, tail_t):
        alerts = feed(app, sid, records)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": tail_t, "u": "a", "v": "b", "w": 1.0}],
             "advance_to": tail_t + 1},
        )
        assert status == 200
        alerts.extend(payload["alerts"])
        return alerts

    def test_identical_tenants_produce_identical_feeds(self, app):
        records = burst_records()
        first = create_session(app)
        second = create_session(app)
        alerts_a = self._drive(app, first, records, 11)
        alerts_b = self._drive(app, second, records, 11)
        assert alerts_a == alerts_b

    def test_topk_session_reports_ranking(self, app):
        sid = create_session(app, k=2, window=3)
        records = []
        for t in range(8):
            records.append(
                {"t": t, "u": "a", "v": "b",
                 "w": 9.0 if t >= 5 else 1.0}
            )
            records.append(
                {"t": t, "u": "c", "v": "d",
                 "w": 5.0 if t >= 5 else 1.0}
            )
        feed(app, sid, records, chunk=100)
        status, payload = app.request(
            "POST",
            f"/v1/stream/sessions/{sid}/events",
            {"events": [{"t": 7, "u": "a", "v": "b", "w": 9.0}],
             "advance_to": 8},
        )
        assert status == 200
        _, info = app.request("GET", f"/v1/stream/sessions/{sid}")
        ranking = info["topk"]
        assert len(ranking) == 2
        assert ranking[0]["subset"] == ["a", "b"]
        assert ranking[1]["subset"] == ["c", "d"]
        assert ranking[0]["score"] > ranking[1]["score"]

    def test_metrics_template_session_routes(self, app):
        sid = create_session(app)
        feed(app, sid, [{"t": 0, "u": "a", "v": "b", "w": 1.0}])
        app.request("GET", f"/v1/stream/sessions/{sid}/alerts")
        app.request("GET", f"/v1/stream/sessions/{sid}")
        _, metrics = app.request("GET", "/metrics")
        routes = metrics["requests"]["by_route"]
        assert "/v1/stream/sessions/{id}/events" in routes
        assert "/v1/stream/sessions/{id}/alerts" in routes
        assert "/v1/stream/sessions/{id}" in routes
        assert not any(sid in route for route in routes)


# ----------------------------------------------------------------------
# the registry budget (unit level)
# ----------------------------------------------------------------------
class TestRegistryBudget:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphRegistry(budget_cells=0)

    def test_charge_rejects_negative(self):
        registry = GraphRegistry(scale=0.0)
        with pytest.raises(ValueError):
            registry.charge("session:x", -1)

    def test_charge_and_discharge_round_trip(self):
        registry = GraphRegistry(scale=0.0)
        registry.charge("session:a", 40)
        registry.charge("session:b", 2)
        assert registry.charged_cells == 42
        registry.charge("session:a", 10)  # replaces, not accumulates
        assert registry.charged_cells == 12
        registry.discharge("session:a")
        registry.discharge("session:a")  # idempotent
        assert registry.charged_cells == 2

    def test_no_budget_never_sheds(self):
        registry = GraphRegistry(scale=0.0)
        registry.charge("session:a", 10**9)
        assert registry.evictions == 0
