"""Tests for the long-running query service (`repro/service/`).

Most routes are exercised in-process through
:meth:`~repro.service.app.ServiceApp.request` — the HTTP shell is a
thin wrapper over the same :meth:`handle` — with one end-to-end socket
test covering the shell itself.  The envelope contract under test: a
``/v1/solve`` result record equals the engine envelope's
``to_record()`` byte-for-byte (minus out-of-band timings), which is
exactly what ``repro dcsad --json`` prints.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro.core.difference import assemble_difference
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.exceptions import InputMismatchError
from repro.graph.generators import random_signed_graph
from repro.graph.io import write_edge_list
from repro.service import GraphRegistry, LatencyWindow, ServiceApp


# ----------------------------------------------------------------------
# shared inputs
# ----------------------------------------------------------------------
def _edge_text(graph) -> str:
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


@pytest.fixture
def pair_texts():
    names = {i: f"v{i:02d}" for i in range(30)}
    g1 = random_signed_graph(30, 0.2, seed=5).positive_part().relabeled(names)
    g2 = random_signed_graph(30, 0.25, seed=6).positive_part().relabeled(names)
    for v in g1.vertices():
        g2.add_vertex(v)
    for v in g2.vertices():
        g1.add_vertex(v)
    return _edge_text(g1), _edge_text(g2), g1, g2


@pytest.fixture
def app(pair_texts):
    app = ServiceApp(scale=0.0)
    g1_text, g2_text, _, _ = pair_texts
    status, _ = app.request(
        "POST",
        "/v1/graphs",
        {"name": "uploaded", "g1": g1_text, "g2": g2_text},
    )
    assert status == 200
    return app


# ----------------------------------------------------------------------
# the graph registry LRU
# ----------------------------------------------------------------------
class TestGraphRegistry:
    def test_dataset_resolution_and_warm_hits(self):
        registry = GraphRegistry(capacity=4, scale=0.0)
        first = registry.resolve("DM/-/Emerging")
        second = registry.resolve("DM/-/Emerging")
        assert first is second  # the warm preparation is shared
        assert registry.warm_hits == 1
        assert registry.resolutions == 2
        assert registry.warm_count == 1

    def test_unknown_name_lists_vocabulary(self):
        registry = GraphRegistry(scale=0.0)
        with pytest.raises(KeyError, match="resolvable names"):
            registry.resolve("no/such/graph")

    def test_lru_evicts_least_recently_used(self, pair_texts):
        registry = GraphRegistry(capacity=2, scale=0.0)
        g1_text, g2_text, _, _ = pair_texts
        registry.register_pair("up", g1_text, g2_text)
        registry.resolve("DM/-/Emerging")
        registry.resolve("up")  # refresh: DM is now the oldest
        registry.resolve("DM/-/Disappearing")  # evicts DM/-/Emerging
        assert registry.evictions == 1
        assert registry.warm_names() == ["up", "DM/-/Disappearing"]
        # An evicted upload is rebuilt from its retained source.
        registry.resolve("up")
        assert registry.resolve("up").gd.num_vertices == 30

    def test_upload_name_validation(self, pair_texts):
        registry = GraphRegistry(scale=0.0)
        g1_text, g2_text, _, _ = pair_texts
        for bad in ("", "has space", "a/b"):
            with pytest.raises(InputMismatchError):
                registry.register_pair(bad, g1_text, g2_text)

    def test_upload_transform_changes_fingerprint(self, pair_texts):
        registry = GraphRegistry(scale=0.0)
        g1_text, g2_text, g1, g2 = pair_texts
        plain = registry.register_pair("plain", g1_text, g2_text)
        flipped = registry.register_pair(
            "flipped", g1_text, g2_text, flip=True
        )
        assert plain.fingerprint != flipped.fingerprint
        expected = PreparedGraph(assemble_difference(g1, g2)).fingerprint
        assert plain.fingerprint == expected

    def test_forget(self, pair_texts):
        registry = GraphRegistry(scale=0.0)
        g1_text, g2_text, _, _ = pair_texts
        registry.register_pair("up", g1_text, g2_text)
        assert registry.forget("up")
        assert not registry.forget("up")
        with pytest.raises(KeyError):
            registry.resolve("up")


# ----------------------------------------------------------------------
# introspection routes
# ----------------------------------------------------------------------
class TestIntrospectionRoutes:
    def test_healthz(self, app):
        status, body = app.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["warm_prepared"] == 1  # the uploaded pair

    def test_datasets_lists_uploads_and_registry(self, app):
        status, body = app.request("GET", "/v1/datasets")
        assert status == 200
        assert "uploaded" in body["graphs"]
        assert "DBLP/Weighted/Emerging" in body["graphs"]
        assert body["warm"] == ["uploaded"]

    def test_metrics_counts_requests_and_cache(self, app):
        app.request("POST", "/v1/solve", {"graph": "uploaded"})
        app.request("POST", "/v1/solve", {"graph": "uploaded"})
        status, body = app.request("GET", "/metrics")
        assert status == 200
        assert body["requests"]["by_route"]["/v1/solve"] == 2
        assert body["queries"]["ok"] == 2
        assert body["cache"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}
        assert body["warm"]["prepared"] == 1
        assert body["latency"]["observations"] == 2
        assert body["latency"]["p95_seconds"] >= body["latency"]["p50_seconds"]

    def test_unknown_route_and_wrong_method(self, app):
        assert app.request("GET", "/nope")[0] == 404
        assert app.request("GET", "/v1/solve")[0] == 405
        assert app.request("POST", "/healthz")[0] == 405


# ----------------------------------------------------------------------
# the solve route
# ----------------------------------------------------------------------
class TestSolveRoute:
    def test_solve_record_matches_engine_envelope(self, app, pair_texts):
        """The service's result record is the engine's ``to_record()``
        — canonical payload byte-identical, only timings out of band.

        The expected graph is re-parsed from the same uploaded text
        (what ``repro dcsad --json`` would read from files): float
        summation order follows construction order, so byte-identity
        holds between equal construction paths.
        """
        from repro.graph.io import read_edge_list

        g1_text, g2_text, _, _ = pair_texts
        g1 = read_edge_list(io.StringIO(g1_text))
        g2 = read_edge_list(io.StringIO(g2_text))
        for v in g1.vertices():
            g2.add_vertex(v)
        for v in g2.vertices():
            g1.add_vertex(v)
        for kind, measure in (("dcsad", "average_degree"),
                              ("dcsga", "affinity")):
            status, body = app.request(
                "POST", "/v1/solve", {"graph": "uploaded", "kind": kind}
            )
            assert status == 200 and body["status"] == "ok"
            prepared = PreparedGraph(assemble_difference(g1, g2))
            prepared.fingerprint
            expected = solve(SolveRequest(measure=measure), prepared)
            strip = lambda r: {
                k: v for k, v in r.items() if k != "timings"
            }
            assert json.dumps(
                strip(body["result"]), sort_keys=True
            ) == json.dumps(strip(expected.to_record()), sort_keys=True)
            assert body["fingerprint"] == prepared.fingerprint

    def test_cached_hit_is_byte_identical(self, app):
        _, first = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "kind": "dcsga"}
        )
        _, second = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "kind": "dcsga"}
        )
        assert not first["cached"] and second["cached"]
        strip = lambda r: {k: v for k, v in r.items() if k != "timings"}
        assert strip(second["result"]) == strip(first["result"])

    def test_numeric_spellings_share_the_cache(self, app):
        _, first = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "k": 2}
        )
        _, second = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "k": 2.0}
        )
        assert not first["cached"] and second["cached"]

    def test_top_k(self, app):
        status, body = app.request(
            "POST",
            "/v1/solve",
            {"graph": "uploaded", "kind": "dcsad", "k": 2},
        )
        assert status == 200
        assert len(body["result"]["detail"]["results"]) <= 2

    def test_dataset_reference(self):
        app = ServiceApp(scale=0.0)
        status, body = app.request(
            "POST", "/v1/solve", {"graph": "DM/-/Emerging"}
        )
        assert status == 200 and body["status"] == "ok"

    def test_validation_errors(self, app):
        assert app.request("POST", "/v1/solve", [1, 2])[0] == 400
        assert app.request("POST", "/v1/solve", {})[0] == 400
        assert (
            app.request(
                "POST", "/v1/solve", {"graph": "uploaded", "kind": "nope"}
            )[0]
            == 400
        )
        assert (
            app.request(
                "POST",
                "/v1/solve",
                {"graph": "uploaded", "backend": "no-such-backend"},
            )[0]
            == 400
        )
        assert (
            app.request(
                "POST", "/v1/solve", {"graph": "uploaded", "k": 1.5}
            )[0]
            == 400
        )
        assert (
            app.request(
                "POST",
                "/v1/solve",
                {"graph": "uploaded", "kind": "dcsad", "strategy": "nope"},
            )[0]
            == 400
        )
        # json.loads accepts NaN and Infinity; the service must not.
        for value in (float("nan"), float("inf")):
            assert (
                app.request(
                    "POST",
                    "/v1/solve",
                    {"graph": "uploaded", "timeout": value},
                )[0]
                == 400
            )

    def test_unknown_graph_is_404(self, app):
        status, body = app.request(
            "POST", "/v1/solve", {"graph": "missing"}
        )
        assert status == 404
        assert "missing" in body["error"]

    def test_timeout_answers_504(self, app, monkeypatch):
        import repro.service.app as app_module

        def slow_solve(request, prepared):
            time.sleep(0.4)
            raise AssertionError("deadline must answer first")

        monkeypatch.setattr(app_module, "solve", slow_solve)
        start = time.perf_counter()
        status, body = app.request(
            "POST",
            "/v1/solve",
            {"graph": "uploaded", "kind": "dcsga", "timeout": 0.05},
        )
        elapsed = time.perf_counter() - start
        assert status == 504
        assert body["status"] == "timeout"
        assert elapsed < 0.4  # answered before the solve finished
        assert app.metrics.queries_timeout == 1

    def test_timeout_covers_a_busy_worker(self, app, monkeypatch):
        """A request's timeout bounds its whole wait: graph resolution
        queued behind a running solve times out on schedule too."""
        import repro.service.app as app_module

        real_solve = app_module.solve
        entered = threading.Event()
        release = threading.Event()

        def held_solve(request, prepared):
            entered.set()
            release.wait(timeout=2.0)
            return real_solve(request, prepared)

        monkeypatch.setattr(app_module, "solve", held_solve)

        async def main():
            held = asyncio.ensure_future(
                app.dispatch(
                    "POST", "/v1/solve", {"graph": "uploaded", "k": 2}
                )
            )
            try:
                assert await asyncio.to_thread(entered.wait, 5.0)
                start = time.perf_counter()
                timed = await app.dispatch(
                    "POST",
                    "/v1/solve",
                    {"graph": "uploaded", "timeout": 0.1},
                )
                elapsed = time.perf_counter() - start
            finally:
                release.set()
            return timed, elapsed, await held

        timed, elapsed, held = asyncio.run(main())
        assert timed.status == 504
        assert timed.payload["status"] == "timeout"
        assert elapsed < 1.0
        assert held.status == 200
        assert app.metrics.queries_timeout == 1


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll *predicate* until it holds; False if *timeout* passes."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_overflow_answers_429(self, app, monkeypatch):
        import repro.service.app as app_module

        real_solve = app_module.solve

        def slow_solve(request, prepared):
            time.sleep(0.3)
            return real_solve(request, prepared)

        monkeypatch.setattr(app_module, "solve", slow_solve)
        app.max_pending = 1

        async def main():
            # Two concurrent requests: one occupies the single worker,
            # one fills the queue; the third must be refused.
            first = asyncio.ensure_future(
                app.dispatch(
                    "POST", "/v1/solve", {"graph": "uploaded", "k": 2}
                )
            )
            await asyncio.sleep(0.05)  # consumer picks the first job up
            second = asyncio.ensure_future(
                app.dispatch(
                    "POST", "/v1/solve", {"graph": "uploaded", "k": 3}
                )
            )
            await asyncio.sleep(0.05)  # second job now fills the queue
            third = await app.dispatch(
                "POST", "/v1/solve", {"graph": "uploaded", "k": 4}
            )
            responses = await asyncio.gather(first, second)
            return [r.status for r in responses], third

        statuses, rejected = asyncio.run(main())
        assert statuses == [200, 200]
        assert rejected.status == 429
        assert "Retry-After" in rejected.headers
        assert app.metrics.rejected == 1

    def test_bound_holds_across_request_threads(self, app, monkeypatch):
        """Requests from different threads (each on its own event loop)
        share one bound: with the worker held and one job waiting, a
        third request is refused."""
        import repro.service.app as app_module

        real_solve = app_module.solve
        entered = threading.Event()
        release = threading.Event()

        def solve_holding_the_first(request, prepared):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=5.0)
            return real_solve(request, prepared)

        monkeypatch.setattr(app_module, "solve", solve_holding_the_first)
        app.max_pending = 1
        statuses = {}

        def send(name, k):
            statuses[name], _ = app.request(
                "POST", "/v1/solve", {"graph": "uploaded", "k": k}
            )

        first = threading.Thread(target=send, args=("first", 2))
        second = threading.Thread(target=send, args=("second", 3))
        first.start()
        held = entered.wait(timeout=5.0)
        second.start()
        try:
            queued = _wait_until(lambda: app.pending == 1)
            third, _ = app.request(
                "POST", "/v1/solve", {"graph": "uploaded", "k": 4}
            )
        finally:
            release.set()
            first.join(timeout=10)
            second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert held and queued
        assert third == 429
        assert statuses == {"first": 200, "second": 200}
        assert app.metrics.rejected == 1

    def test_abandoned_job_frees_its_slot(self, app, monkeypatch):
        """A job whose requester timed out before it started is
        dropped: its slot frees at once, and its work never runs."""
        import repro.service.app as app_module

        real_solve = app_module.solve
        entered = threading.Event()
        release = threading.Event()

        def held_solve(request, prepared):
            entered.set()
            release.wait(timeout=5.0)
            return real_solve(request, prepared)

        monkeypatch.setattr(app_module, "solve", held_solve)
        app.max_pending = 1
        _, created = app.request(
            "POST", "/v1/stream/sessions", {"universe": ["a", "b", "c"]}
        )
        sid = created["session"]
        events = f"/v1/stream/sessions/{sid}/events"

        async def main():
            held = asyncio.ensure_future(
                app.dispatch(
                    "POST", "/v1/solve", {"graph": "uploaded", "k": 2}
                )
            )
            try:
                assert await asyncio.to_thread(entered.wait, 5.0)
                abandoned = await app.dispatch(
                    "POST",
                    events,
                    {
                        "events": [{"t": 0, "u": "a", "v": "b", "w": 1.0}],
                        "timeout": 0.1,
                    },
                )
                follower = asyncio.ensure_future(
                    app.dispatch(
                        "POST",
                        events,
                        {"events": [{"t": 1, "u": "b", "v": "c", "w": 1.0}]},
                    )
                )
                # One loop turn: the follower reaches admission while
                # the worker is still held.
                await asyncio.sleep(0)
            finally:
                release.set()
            return abandoned, await follower, await held

        abandoned, follower, held = asyncio.run(main())
        assert abandoned.status == 504
        assert follower.status == 200
        assert held.status == 200
        _, info = app.request("GET", f"/v1/stream/sessions/{sid}")
        assert (info["events"], info["batches"]) == (1, 1)

    def test_rejections_counted_in_metrics(self, app):
        app.metrics.rejected = 3
        _, body = app.request("GET", "/metrics")
        assert body["queries"]["rejected"] == 3


# ----------------------------------------------------------------------
# the batch route
# ----------------------------------------------------------------------
class TestBatchRoute:
    def test_graph_refs_and_dedup(self, app):
        status, body = app.request(
            "POST",
            "/v1/batch",
            {
                "queries": [
                    {"kind": "dcsad", "graph": "uploaded"},
                    {"kind": "dcsga", "graph": "uploaded"},
                    {"kind": "dcsad", "graph": "uploaded"},
                ]
            },
        )
        assert status == 200 and body["status"] == "ok"
        assert [r["status"] for r in body["results"]] == ["ok"] * 3
        assert body["stats"]["preps_built"] == 1
        assert body["stats"]["cache_hits"] == 1  # the duplicate dcsad

    def test_bare_array_body(self, app):
        status, body = app.request(
            "POST", "/v1/batch", [{"kind": "dcsad", "graph": "uploaded"}]
        )
        assert status == 200
        assert body["results"][0]["qid"] == "q0"

    def test_batch_shares_the_solve_cache(self, app):
        app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "kind": "dcsga"}
        )
        status, body = app.request(
            "POST", "/v1/batch", [{"kind": "dcsga", "graph": "uploaded"}]
        )
        assert status == 200
        assert body["results"][0]["cached"] is True

    def test_partial_status_on_bad_query(self, app):
        status, body = app.request(
            "POST",
            "/v1/batch",
            [
                {"kind": "dcsad", "graph": "uploaded"},
                # Prep-level failure: the registry builder rejects the
                # transform for dataset sources — per-query error.
                {
                    "kind": "dcsad",
                    "dataset": "DM/-/Emerging",
                    "alpha": 0.5,
                },
            ],
        )
        assert status == 200
        assert body["status"] == "partial"
        assert body["results"][0]["status"] == "ok"
        assert body["results"][1]["status"] == "error"

    def test_file_and_event_sources_rejected(self, app):
        """Network clients must not be able to make the server read
        local files — the CLI's path vocabulary stops at the socket."""
        for record in (
            {"kind": "dcsad", "g1": "/etc/hostname", "g2": "/etc/hostname"},
            {"kind": "stream", "events": "/etc/hostname"},
        ):
            status, body = app.request("POST", "/v1/batch", [record])
            assert status == 400
            assert "server-side files" in body["error"]

    def test_oversized_dataset_scale_rejected(self, app):
        status, body = app.request(
            "POST",
            "/v1/batch",
            [{"kind": "dcsad", "dataset": "DM/-/Emerging", "scale": 100}],
        )
        assert status == 400
        assert "scale" in body["error"]

    def test_unknown_graph_ref_is_404(self, app):
        assert (
            app.request(
                "POST", "/v1/batch", [{"kind": "dcsad", "graph": "ghost"}]
            )[0]
            == 404
        )

    def test_empty_batch_rejected(self, app):
        assert app.request("POST", "/v1/batch", [])[0] == 400
        assert app.request("POST", "/v1/batch", {"queries": []})[0] == 400


# ----------------------------------------------------------------------
# uploads
# ----------------------------------------------------------------------
class TestUploadRoute:
    def test_upload_reports_shape(self, pair_texts):
        app = ServiceApp(scale=0.0)
        g1_text, g2_text, _, _ = pair_texts
        status, body = app.request(
            "POST",
            "/v1/graphs",
            {"name": "pair", "g1": g1_text, "g2": g2_text, "alpha": 0.5},
        )
        assert status == 200
        assert body["vertices"] == 30
        assert body["warm_prepared"] == 1
        assert len(body["fingerprint"]) == 64

    def test_upload_validation(self, pair_texts):
        app = ServiceApp(scale=0.0)
        g1_text, g2_text, _, _ = pair_texts
        assert app.request("POST", "/v1/graphs", [1])[0] == 400
        assert (
            app.request("POST", "/v1/graphs", {"name": "x", "g1": g1_text})[
                0
            ]
            == 400
        )
        assert (
            app.request(
                "POST",
                "/v1/graphs",
                {"name": "a/b", "g1": g1_text, "g2": g2_text},
            )[0]
            == 400
        )
        assert (
            app.request(
                "POST",
                "/v1/graphs",
                {"name": "x", "g1": "not an edge list", "g2": g2_text},
            )[0]
            == 400
        )


# ----------------------------------------------------------------------
# metrics helpers
# ----------------------------------------------------------------------
class TestLatencyWindow:
    def test_quantiles_nearest_rank(self):
        window = LatencyWindow(capacity=100)
        for value in range(1, 101):
            window.add(float(value))
        assert window.quantile(0.0) == 1.0
        assert window.quantile(0.50) == 51.0
        assert window.quantile(0.95) == 96.0
        assert window.quantile(1.0) == 100.0

    def test_ring_keeps_recent(self):
        window = LatencyWindow(capacity=4)
        for value in (10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0):
            window.add(value)
        assert window.quantile(0.95) == 1.0  # old tens rolled out
        assert window.count == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(capacity=0)
        with pytest.raises(ValueError):
            LatencyWindow().quantile(1.5)

    def test_wraparound_quantiles_reflect_retained_window_only(self):
        window = LatencyWindow(capacity=8)
        # 3x capacity observations: only the last 8 (93..100) remain.
        for value in range(77, 101):
            window.add(float(value))
        assert window.count == 24
        assert window.quantile(0.0) == 93.0
        assert window.quantile(1.0) == 100.0
        assert window.quantile(0.5) == 97.0  # nearest rank: index 4 of 8

    def test_nearest_rank_edges(self):
        window = LatencyWindow(capacity=5)
        for value in (5.0, 3.0, 1.0, 4.0, 2.0):
            window.add(value)
        # q=0 is the minimum, q=1 clamps to the maximum (index
        # int(1.0 * 5) == 5 must clamp to 4, not raise).
        assert window.quantile(0.0) == 1.0
        assert window.quantile(1.0) == 5.0
        # one observation past capacity: 5.0 (the oldest) rolls out
        window.add(0.5)
        assert window.quantile(1.0) == 4.0

    def test_capacity_one(self):
        window = LatencyWindow(capacity=1)
        assert window.quantile(0.5) == 0.0  # empty window
        window.add(7.0)
        window.add(9.0)
        assert window.count == 2
        for q in (0.0, 0.5, 1.0):
            assert window.quantile(q) == 9.0


class TestServiceMetricsThreadSafety:
    def test_concurrent_mutation_keeps_counts_exact(self):
        import threading

        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        threads_n, per_thread = 8, 500

        def hammer(index: int) -> None:
            for i in range(per_thread):
                metrics.observe_request(f"/route-{index % 2}", 200)
                metrics.observe_query(
                    ("ok", "error", "timeout")[i % 3], 0.001 * index
                )
                metrics.observe_rejection()
                metrics.observe_phases({"driver": 0.001, "peel": 0.002})
                metrics.observe_loop_lag(0.0001 * index)
                if i % 50 == 0:
                    metrics.snapshot(
                        cache_hits=0,
                        cache_misses=0,
                        warm_prepared=0,
                        warm_capacity=8,
                        warm_hits=0,
                        warm_evictions=0,
                        pending=0,
                    )

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = threads_n * per_thread
        snapshot = metrics.snapshot(
            cache_hits=0,
            cache_misses=0,
            warm_prepared=0,
            warm_capacity=8,
            warm_hits=0,
            warm_evictions=0,
            pending=0,
        )
        assert snapshot["requests"]["total"] == total
        assert sum(snapshot["requests"]["by_route"].values()) == total
        queries = snapshot["queries"]
        assert (
            queries["ok"] + queries["error"] + queries["timeout"] == total
        )
        assert queries["rejected"] == total
        assert snapshot["latency"]["observations"] == total
        phases = snapshot["solve_phases"]
        assert phases["driver"]["calls"] == total
        assert phases["driver"]["seconds"] == pytest.approx(0.001 * total)
        assert phases["peel"]["seconds"] == pytest.approx(0.002 * total)


# ----------------------------------------------------------------------
# observability: request ids, phases, Prometheus exposition
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_request_id_echoed_when_well_formed(self, app):
        response = asyncio.run(
            app.dispatch(
                "GET", "/healthz", headers={"X-Request-Id": "client-id.1"}
            )
        )
        assert response.headers["X-Request-Id"] == "client-id.1"

    def test_request_id_generated_when_absent_or_malformed(self, app):
        fresh = asyncio.run(app.dispatch("GET", "/healthz"))
        assert len(fresh.headers["X-Request-Id"]) == 16
        bad = asyncio.run(
            app.dispatch(
                "GET", "/healthz", headers={"X-Request-Id": "bad id\r\nX: 1"}
            )
        )
        assert bad.headers["X-Request-Id"] != "bad id\r\nX: 1"
        assert len(bad.headers["X-Request-Id"]) == 16

    def test_error_responses_carry_request_ids_too(self, app):
        response = asyncio.run(app.dispatch("GET", "/nope"))
        assert response.status == 404
        assert len(response.headers["X-Request-Id"]) == 16

    def test_solve_timings_carry_phase_breakdown(self, app):
        status, body = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "kind": "dcsga"}
        )
        assert status == 200
        timings = body["result"]["timings"]
        phases = timings["phases"]
        assert sum(phases.values()) == pytest.approx(
            timings["solve_seconds"], rel=0.10
        )
        # ... and /metrics accumulated the same phases.
        _, metrics = app.request("GET", "/metrics")
        assert set(metrics["solve_phases"]) >= {"driver", "new_sea"}
        assert metrics["solve_phases"]["driver"]["calls"] == 1

    def test_metrics_json_shape_keeps_preexisting_sections(self, app):
        _, body = app.request("GET", "/metrics")
        assert {
            "uptime_seconds",
            "requests",
            "queries",
            "cache",
            "warm",
            "latency",
            "sessions",
        } <= set(body)
        assert body["loop"].keys() == {"lag_seconds", "lag_max_seconds"}
        assert isinstance(body["solve_phases"], dict)

    def test_metrics_prometheus_negotiation(self, app):
        from repro.obs.prometheus import parse_exposition

        app.request("POST", "/v1/solve", {"graph": "uploaded"})
        via_query = asyncio.run(
            app.dispatch("GET", "/metrics?format=prometheus")
        )
        assert via_query.status == 200
        assert via_query.content_type.startswith("text/plain")
        families = parse_exposition(via_query.payload)
        assert families["repro_queries_total"]["samples"][
            'repro_queries_total{outcome="ok"}'
        ] == 1.0
        assert "repro_solve_phase_seconds_total" in families
        via_accept = asyncio.run(
            app.dispatch(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
        )
        assert via_accept.content_type.startswith("text/plain")
        # Default (no negotiation) stays JSON.
        plain = asyncio.run(app.dispatch("GET", "/metrics"))
        assert plain.content_type is None
        assert isinstance(plain.payload, dict)

    def test_access_log_records_requests(self, app):
        import logging as logging_module

        from repro.obs.logs import ACCESS_LOGGER, JsonFormatter

        stream = io.StringIO()
        handler = logging_module.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = logging_module.getLogger(ACCESS_LOGGER)
        logger.addHandler(handler)
        logger.setLevel(logging_module.INFO)
        app.access_log = True
        try:
            asyncio.run(
                app.dispatch(
                    "GET", "/healthz", headers={"X-Request-Id": "log-me"}
                )
            )
        finally:
            app.access_log = False
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "access"
        assert record["request_id"] == "log-me"
        assert record["route"] == "/healthz"
        assert record["status"] == 200
        assert record["seconds"] >= 0.0

    def test_slow_query_log_fires_above_threshold(self, app):
        import logging as logging_module

        from repro.obs.logs import SLOW_LOGGER, JsonFormatter

        stream = io.StringIO()
        handler = logging_module.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = logging_module.getLogger(SLOW_LOGGER)
        logger.addHandler(handler)
        app.slow_query_seconds = 0.0  # everything is "slow"
        try:
            app.request("POST", "/v1/solve", {"graph": "uploaded"})
        finally:
            app.slow_query_seconds = None
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "slow_query"
        assert record["status"] == "ok"
        assert record["seconds"] > 0.0
        assert record["request_id"]

    def test_default_is_silent(self, app, capsys):
        app.request("POST", "/v1/solve", {"graph": "uploaded"})
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_serve_log_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve",
                "--log-level",
                "debug",
                "--access-log",
                "--slow-query",
                "1.5",
            ]
        )
        assert args.log_level == "debug"
        assert args.access_log is True
        assert args.slow_query == 1.5
        defaults = _build_parser().parse_args(["serve"])
        assert defaults.log_level is None
        assert defaults.access_log is False
        assert defaults.slow_query is None


# ----------------------------------------------------------------------
# the HTTP shell, end to end
# ----------------------------------------------------------------------
class TestHttpShell:
    def test_socket_round_trip(self, pair_texts):
        import urllib.error
        import urllib.request

        g1_text, g2_text, _, _ = pair_texts
        app = ServiceApp(scale=0.0)

        async def main():
            server = await app.start_server(port=0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()

            def client():
                base = f"http://127.0.0.1:{port}"
                with urllib.request.urlopen(f"{base}/healthz") as r:
                    health = json.loads(r.read())
                upload = urllib.request.Request(
                    f"{base}/v1/graphs",
                    data=json.dumps(
                        {"name": "pair", "g1": g1_text, "g2": g2_text}
                    ).encode("utf-8"),
                    method="POST",
                )
                with urllib.request.urlopen(upload) as r:
                    assert r.status == 200
                solve_req = urllib.request.Request(
                    f"{base}/v1/solve",
                    data=json.dumps(
                        {"graph": "pair", "kind": "dcsad"}
                    ).encode("utf-8"),
                    method="POST",
                )
                with urllib.request.urlopen(solve_req) as r:
                    answer = json.loads(r.read())
                try:
                    urllib.request.urlopen(f"{base}/missing")
                    raise AssertionError("must 404")
                except urllib.error.HTTPError as exc:
                    not_found = exc.code
                with urllib.request.urlopen(f"{base}/metrics") as r:
                    metrics = json.loads(r.read())
                return health, answer, not_found, metrics

            try:
                return await loop.run_in_executor(None, client)
            finally:
                server.close()
                await server.wait_closed()
                await app.aclose()

        health, answer, not_found, metrics = asyncio.run(main())
        assert health["status"] == "ok"
        assert answer["status"] == "ok"
        assert answer["result"]["kind"] == "dcsad"
        assert not_found == 404
        assert metrics["requests"]["total"] == 4
        assert metrics["requests"]["by_status"]["404"] == 1

    def test_malformed_http_payloads(self, app):
        from repro.service.http import HttpError, HttpRequest

        bad = HttpRequest(method="POST", path="/v1/solve", body=b"{nope")
        with pytest.raises(HttpError) as err:
            bad.json()
        assert err.value.status == 400

    def test_serve_cli_parser(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--timeout", "5"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 2
        assert args.timeout == 5.0


# ----------------------------------------------------------------------
# the `repro serve` command
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_serve_prints_banner_and_handles_interrupt(
        self, monkeypatch, capsys
    ):
        """`repro serve` binds, prints the parseable listening line, and
        exits 0 on Ctrl-C (covered with a fake bound server)."""
        from repro.cli import main

        class FakeSocket:
            def getsockname(self):
                return ("127.0.0.1", 12345)

        class FakeServer:
            sockets = [FakeSocket()]

            async def serve_forever(self):
                raise KeyboardInterrupt

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def fake_serve_http(handler, host, port):
            assert host == "127.0.0.1" and port == 0
            return FakeServer()

        monkeypatch.setattr(
            "repro.service.http.serve_http", fake_serve_http
        )
        assert main(["serve", "--port", "0"]) == 0
        captured = capsys.readouterr()
        assert "listening on http://127.0.0.1:12345" in captured.out
        assert "stopped" in captured.err

    def test_serve_rejects_bad_cache_dir(self, tmp_path):
        from repro.cli import main

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit):
            main(["serve", "--cache-dir", str(blocker / "sub")])

    def test_serve_rejects_bad_workers(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--workers", "0"])


# ----------------------------------------------------------------------
# review-hardening regressions
# ----------------------------------------------------------------------
class TestReviewHardening:
    def test_batch_timeout_answers_504(self, app, monkeypatch):
        """/v1/batch enforces its per-query budget at the await side:
        the whole batch deadline is budget x queries, then 504."""
        import repro.batch.executor as executor_module

        real = executor_module.execute_payload

        def slow_execute(kind, params, payload, prepared=None):
            time.sleep(0.5)
            return real(kind, params, payload, prepared=prepared)

        monkeypatch.setattr(
            "repro.service.app.BatchExecutor",
            lambda **kwargs: _SlowExecutor(slow_execute, **kwargs),
        )
        start = time.perf_counter()
        status, body = app.request(
            "POST",
            "/v1/batch",
            {
                "queries": [{"kind": "dcsad", "graph": "uploaded"}],
                "timeout": 0.05,
            },
        )
        assert status == 504
        assert body["status"] == "timeout"
        assert time.perf_counter() - start < 0.5

    def test_unavailable_backend_is_client_error(self, app, monkeypatch):
        """A registered backend whose dependency is missing answers
        400, not 500 — it is the client's backend choice."""
        from repro.exceptions import BackendUnavailableError

        def unavailable(name):
            raise BackendUnavailableError(f"backend {name!r} needs SciPy")

        monkeypatch.setattr(
            "repro.service.app.resolve_backend", unavailable
        )
        status, body = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "backend": "sparse"}
        )
        assert status == 400
        assert "SciPy" in body["error"]

    def test_unmatched_paths_share_one_metrics_bucket(self, app):
        """Scanner traffic must not grow the per-route metrics dict."""
        for path in ("/a", "/b", "/c/d", "/v1/solve/123"):
            app.request("GET", path)
        _, body = app.request("GET", "/metrics")
        by_route = body["requests"]["by_route"]
        assert by_route["(unmatched)"] == 4
        assert not any(route.startswith("/a") for route in by_route)

    def test_upload_limit_answers_400(self, pair_texts):
        g1_text, g2_text, _, _ = pair_texts
        app = ServiceApp(
            registry=GraphRegistry(scale=0.0, max_uploads=2)
        )
        for name in ("one", "two"):
            status, _ = app.request(
                "POST",
                "/v1/graphs",
                {"name": name, "g1": g1_text, "g2": g2_text},
            )
            assert status == 200
        # Replacing an existing name is still allowed ...
        status, _ = app.request(
            "POST",
            "/v1/graphs",
            {"name": "two", "g1": g1_text, "g2": g2_text, "flip": True},
        )
        assert status == 200
        # ... a third distinct name is refused.
        status, body = app.request(
            "POST",
            "/v1/graphs",
            {"name": "three", "g1": g1_text, "g2": g2_text},
        )
        assert status == 400
        assert "upload limit" in body["error"]


class _SlowExecutor:
    """BatchExecutor stand-in whose run() is artificially slow."""

    def __init__(self, slow_execute, **kwargs):
        from repro.batch.executor import BatchExecutor, BatchStats

        self._slow = slow_execute
        self._inner = BatchExecutor(**kwargs)
        self.stats = BatchStats()

    def run(self, queries):
        time.sleep(0.5)
        results = self._inner.run(queries)
        self.stats = self._inner.stats
        return results


class TestSecondReviewHardening:
    def test_backend_alias_shares_cache_and_canonical_bytes(self, app):
        """'heap' is an alias of 'python': one cache entry, and the
        response names the canonical backend either way."""
        _, first = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "backend": "python"}
        )
        _, second = app.request(
            "POST", "/v1/solve", {"graph": "uploaded", "backend": "heap"}
        )
        assert not first["cached"] and second["cached"]
        assert second["result"]["params"]["backend"] == "python"
        strip = lambda r: {k: v for k, v in r.items() if k != "timings"}
        assert strip(second["result"]) == strip(first["result"])

    def test_upload_rejects_stringly_booleans(self, app, pair_texts):
        """'"false"' must not silently mean True (a flipped graph)."""
        g1_text, g2_text, _, _ = pair_texts
        status, body = app.request(
            "POST",
            "/v1/graphs",
            {"name": "x", "g1": g1_text, "g2": g2_text, "flip": "false"},
        )
        assert status == 400
        assert "boolean" in body["error"]

    def test_cold_build_does_not_block_warm_hits(self, app, monkeypatch):
        """registry.resolve builds cold names outside its lock."""
        import threading

        from repro.datasets import registry as datasets_registry

        release = threading.Event()
        real = datasets_registry.build_named

        def slow_build(name, scale=1.0):
            release.wait(timeout=5.0)
            return real(name, scale=scale)

        monkeypatch.setattr(
            "repro.datasets.registry.build_named", slow_build
        )
        registry = app.registry
        done = []

        def cold():
            done.append(registry.resolve("DM/-/Emerging"))

        thread = threading.Thread(target=cold)
        thread.start()
        try:
            # While the cold build blocks, a warm hit must not.
            start = time.perf_counter()
            warm = registry.resolve("uploaded")
            assert time.perf_counter() - start < 1.0
            assert warm is not None
        finally:
            release.set()
            thread.join(timeout=10)
        assert len(done) == 1
