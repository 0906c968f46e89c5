"""Tests for the observability layer (`repro/obs/`).

The contracts under test, layer by layer:

* tracing core — nesting, self-time phase aggregation (totals sum to
  the root duration), the zero-overhead no-op default;
* registry instrumentation — `resolve_backend` wraps only while a
  recording tracer is active, and the wrapper is capability-transparent;
* the envelope — `timings["phases"]` appears exactly when recording,
  sums to within 10% of `solve_seconds`, and never perturbs the
  canonical answer bytes;
* batch — per-result `profile` rides in `to_json` but stays out of the
  canonical identity; plan-level phase totals accumulate in the stats;
* stream — per-step `StepProfile` records and `phase_stats()`;
* Prometheus text exposition — render/parse round-trip on a real
  `/metrics` snapshot;
* structured logs — `JsonFormatter` output is parseable JSON carrying
  the `extra` fields;
* the CLI `--profile` flag.
"""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro.batch.executor import BatchExecutor
from repro.batch.queries import query_from_dict
from repro.core.difference import assemble_difference
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.engine.registry import (
    CAPABILITIES,
    SolverBackend,
    get_backend,
    resolve_backend,
)
from repro.graph.generators import random_signed_graph
from repro.graph.graph import Graph
from repro.obs.backend import TracingBackend, maybe_wrap, wrap_backend
from repro.obs.logs import JsonFormatter, configure_logging
from repro.obs.prometheus import parse_exposition, render_exposition
from repro.obs.trace import (
    NOOP_TRACER,
    Tracer,
    current_tracer,
    new_trace_id,
    phase_of,
    phase_totals,
    recording,
    render_trace,
)


def _difference_graph(n: int = 24, seed: int = 3) -> Graph:
    g1 = random_signed_graph(n, 0.2, seed=seed).positive_part()
    g2 = random_signed_graph(n, 0.3, seed=seed + 1).positive_part()
    for v in g1.vertices():
        g2.add_vertex(v)
    for v in g2.vertices():
        g1.add_vertex(v)
    return assemble_difference(g1, g2)


# ----------------------------------------------------------------------
# tracing core
# ----------------------------------------------------------------------
class TestTracer:
    def test_default_is_the_shared_noop(self):
        tracer = current_tracer()
        assert tracer is NOOP_TRACER
        assert tracer.is_noop
        # The no-op span is shared and does nothing.
        with tracer.span("anything", weight=3) as span:
            span.set(more=1)
        assert tracer.roots == []

    def test_recording_activates_and_restores(self):
        assert current_tracer().is_noop
        with recording() as tracer:
            assert current_tracer() is tracer
            assert not tracer.is_noop
            assert len(tracer.trace_id) == 16
        assert current_tracer() is NOOP_TRACER

    def test_spans_nest_and_time(self):
        with recording() as tracer:
            with tracer.span("outer", kind="x") as outer:
                time.sleep(0.002)
                with tracer.span("inner"):
                    time.sleep(0.002)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner"]
        inner = outer.children[0]
        assert outer.duration >= inner.duration > 0.0
        assert outer.attributes == {"kind": "x"}
        # self time excludes the child interval
        assert outer.self_seconds == pytest.approx(
            outer.duration - inner.duration
        )

    def test_span_to_dict_round_trips_through_json(self):
        with recording() as tracer:
            with tracer.span("a", n=1):
                with tracer.span("b"):
                    pass
        tree = json.loads(json.dumps(tracer.to_dict()))
        assert tree["trace_id"] == tracer.trace_id
        assert tree["spans"][0]["name"] == "a"
        assert tree["spans"][0]["children"][0]["name"] == "b"

    def test_new_trace_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()


class TestPhaseDerivation:
    def test_phase_of_mapping(self):
        assert phase_of("solve") == "driver"
        assert phase_of("prepare.gd_plus") == "prepare"
        assert phase_of("prepare.csr") == "prepare"
        assert phase_of("backend.peel") == "peel"
        assert phase_of("backend.vertex_solver") == "vertex_solver"
        assert phase_of("new_sea") == "new_sea"
        assert phase_of("seacd.shrink") == "shrink"
        assert phase_of("seacd.expand") == "expand"
        assert phase_of("other") == "other"

    def test_totals_sum_exactly_to_root_duration(self):
        with recording() as tracer:
            with tracer.span("solve") as root:
                with tracer.span("backend.peel"):
                    time.sleep(0.002)
                with tracer.span("backend.seacd"):
                    with tracer.span("seacd.shrink"):
                        time.sleep(0.001)
        totals = phase_totals([root])
        assert set(totals) == {"driver", "peel", "seacd", "shrink"}
        assert sum(totals.values()) == pytest.approx(
            root.duration, rel=1e-9
        )

    def test_render_trace_merges_siblings_and_footers(self):
        with recording() as tracer:
            with tracer.span("solve"):
                for _ in range(3):
                    with tracer.span("backend.seacd"):
                        pass
        text = render_trace(tracer)
        assert text.startswith(f"trace {tracer.trace_id}")
        assert "backend.seacd" in text and "×3" in text
        assert "phase totals:" in text
        assert "phase sum:" in text


# ----------------------------------------------------------------------
# registry instrumentation
# ----------------------------------------------------------------------
class TestTracingBackend:
    def test_resolve_is_bare_under_the_noop(self):
        backend = resolve_backend("python")
        assert not isinstance(backend, TracingBackend)

    def test_resolve_wraps_while_recording(self):
        with recording():
            backend = resolve_backend("python")
        assert isinstance(backend, TracingBackend)
        assert backend.name == "python"

    def test_wrap_is_idempotent_per_tracer(self):
        inner = get_backend("python")
        tracer = Tracer()
        once = wrap_backend(inner, tracer)
        twice = wrap_backend(once, tracer)
        assert twice is once
        other = wrap_backend(once, Tracer())
        assert other is not once

    def test_maybe_wrap_passthrough_on_noop(self):
        inner = get_backend("python")
        assert maybe_wrap(inner) is inner

    def test_capability_introspection_delegates(self):
        inner = get_backend("python")
        wrapped = wrap_backend(inner, Tracer())
        for capability in CAPABILITIES:
            assert wrapped.has_capability(capability) == (
                inner.has_capability(capability)
            )
        assert wrapped.available() == inner.available()
        assert (
            wrapped.supports_shared_adjacency
            == inner.supports_shared_adjacency
        )

    def test_capability_calls_record_spans(self):
        gd = _difference_graph()
        with recording() as tracer:
            backend = resolve_backend("python")
            backend.peel(gd)
        names = [span.name for span in tracer.roots]
        assert "backend.peel" in names

    @pytest.mark.parametrize("capability", CAPABILITIES)
    def test_each_capability_is_traced_and_transparent(self, capability):
        class Echo(SolverBackend):
            name = "echo"

        def echo(self, *args, **kwargs):
            return (capability, args, kwargs)

        setattr(Echo, capability, echo)
        tracer = Tracer()
        wrapped = wrap_backend(Echo(), tracer)
        result = getattr(wrapped, capability)("graph", adjacency=None)
        assert result == (capability, ("graph",), {"adjacency": None})
        assert [
            (span.name, span.attributes) for span in tracer.roots
        ] == [(f"backend.{capability}", {"backend": "echo"})]
        assert not tracer.roots[0].children
        expected = {"python": True, "segment_tree": capability == "peel"}
        for name, has in expected.items():
            inner = get_backend(name)
            assert inner.has_capability(capability) == has
            assert wrap_backend(inner, tracer).has_capability(capability) == has


# ----------------------------------------------------------------------
# the envelope
# ----------------------------------------------------------------------
class TestEnvelopeProfile:
    @pytest.mark.parametrize("measure", ["average_degree", "affinity"])
    def test_phases_appear_only_when_recording(self, measure):
        prepared = PreparedGraph(_difference_graph())
        request = SolveRequest(measure=measure)
        untraced = solve(request, prepared)
        assert set(untraced.timings) == {"solve_seconds"}
        with recording():
            traced = solve(request, PreparedGraph(_difference_graph()))
        assert "phases" in traced.timings
        assert all(
            seconds >= 0.0 for seconds in traced.timings["phases"].values()
        )

    def test_phase_sum_within_ten_percent_of_solve_seconds(self):
        prepared = PreparedGraph(_difference_graph(30, seed=9))
        with recording():
            result = solve(SolveRequest(measure="affinity"), prepared)
        phases = result.timings["phases"]
        total = sum(phases.values())
        solve_seconds = result.timings["solve_seconds"]
        assert total == pytest.approx(solve_seconds, rel=0.10)
        # NewSEA under the python backend shows the full alternation.
        assert {"driver", "new_sea", "seacd"} <= set(phases)

    def test_answer_bytes_identical_traced_and_untraced(self):
        request = SolveRequest(measure="average_degree")
        plain = solve(request, PreparedGraph(_difference_graph()))
        with recording():
            traced = solve(request, PreparedGraph(_difference_graph()))
        assert traced.canonical_json() == plain.canonical_json()
        assert traced.provenance == plain.provenance


# ----------------------------------------------------------------------
# batch profiles
# ----------------------------------------------------------------------
class TestBatchProfiles:
    def test_results_carry_profiles_out_of_band(self):
        gd = _difference_graph()
        query = query_from_dict({"qid": "q1", "kind": "dcsad", "graph": "g"},
                                graph_resolver=lambda ref: gd)
        executor = BatchExecutor()
        results = executor.run([query])
        assert len(results) == 1
        result = results[0]
        assert result.status == "ok"
        assert result.profile, "graph solves must ship a phase profile"
        record = json.loads(result.to_json())
        assert record["profile"] == result.profile
        # ... but the canonical identity ignores it.
        assert "profile" not in json.loads(result.canonical_json())
        # Plan-level accumulation:
        assert executor.stats.phase_seconds
        assert "phases[" in executor.stats.summary()

    def test_cached_results_skip_profiles(self):
        gd = _difference_graph()
        make = lambda: query_from_dict(  # noqa: E731 - local shorthand
            {"qid": "q1", "kind": "dcsad", "graph": "g"},
            graph_resolver=lambda ref: gd,
        )
        executor = BatchExecutor()
        executor.run([make()])
        results = executor.run([make()])
        assert results[0].cached
        assert results[0].profile is None


# ----------------------------------------------------------------------
# stream step profiles
# ----------------------------------------------------------------------
class TestStreamProfiles:
    def _engine(self):
        from repro.stream.engine import StreamingDCSEngine
        from repro.stream.events import EdgeEvent

        universe = {f"v{i}" for i in range(8)}
        engine = StreamingDCSEngine(universe, window=2, warmup=1)
        for step in range(4):
            for i in range(4):
                engine.ingest(
                    EdgeEvent(step, f"v{i}", f"v{(i + 1) % 8}", 2.0)
                )
        engine.advance_to(4)
        return engine

    def test_step_profiles_accumulate(self):
        engine = self._engine()
        profiles = engine.step_profiles()
        # 4 closed steps, minus the warmup step that answers nothing.
        assert len(profiles) == 3
        last = engine.last_step_profile
        assert last is not None
        assert last.step == profiles[-1].step
        assert last.seconds >= 0.0
        assert last.touched >= 0

    def test_phase_stats_shape(self):
        engine = self._engine()
        stats = engine.phase_stats()
        assert stats["steps"] == 4
        assert stats["events"] == 16
        assert set(stats["dirty"]) == {"touched"}
        assert stats["last_step"] == engine.last_step_profile.to_dict()


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def _snapshot(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.observe_request("/v1/solve", 200)
        metrics.observe_request("(unmatched)", 404)
        metrics.observe_query("ok", 0.01)
        metrics.observe_query("timeout", 2.0)
        metrics.observe_rejection()
        metrics.observe_phases({"driver": 0.001, "peel": 0.005})
        metrics.observe_loop_lag(0.002)
        return metrics.snapshot(
            cache_hits=3,
            cache_misses=1,
            warm_prepared=2,
            warm_capacity=8,
            warm_hits=5,
            warm_evictions=1,
            pending=0,
            sessions={"active": 1, "events": 7, "alerts": 2},
        )

    def test_render_parse_round_trip(self):
        text = render_exposition(self._snapshot())
        families = parse_exposition(text)
        assert families["repro_requests_total"]["type"] == "counter"
        requests = families["repro_requests_total"]["samples"]
        assert requests['repro_requests_total{route="/v1/solve"}'] == 1.0
        assert families["repro_query_latency_seconds"]["type"] == "summary"
        phases = families["repro_solve_phase_seconds_total"]["samples"]
        assert set(phases) == {
            'repro_solve_phase_seconds_total{phase="driver"}',
            'repro_solve_phase_seconds_total{phase="peel"}',
        }
        lag = families["repro_event_loop_lag_seconds"]["samples"]
        assert lag["repro_event_loop_lag_seconds"] == pytest.approx(0.002)

    def test_sessions_section_is_optional(self):
        from repro.service.metrics import ServiceMetrics

        snapshot = ServiceMetrics().snapshot(
            cache_hits=0,
            cache_misses=0,
            warm_prepared=0,
            warm_capacity=8,
            warm_hits=0,
            warm_evictions=0,
            pending=0,
        )
        families = parse_exposition(render_exposition(snapshot))
        assert "repro_sessions_active" not in families
        assert "repro_uptime_seconds" in families

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_exposition("repro_thing 1.0\n")  # sample before TYPE
        with pytest.raises(ValueError):
            parse_exposition(
                "# TYPE bad_kind gadget\nbad_kind 1\n"
            )
        with pytest.raises(ValueError):
            parse_exposition(
                "# TYPE x counter\nx not_a_number\n"
            )


# ----------------------------------------------------------------------
# structured logs
# ----------------------------------------------------------------------
class TestLogs:
    def test_json_formatter_carries_extras(self):
        formatter = JsonFormatter()
        logger = logging.getLogger("repro.test.access")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(formatter)
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            logger.info(
                "access",
                extra={"request_id": "abc", "status": 200, "seconds": 0.01},
            )
        finally:
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "access"
        assert record["level"] == "INFO"
        assert record["request_id"] == "abc"
        assert record["status"] == 200
        assert record["ts"] > 0

    def test_configure_logging_attaches_and_is_removable(self):
        stream = io.StringIO()
        handler = configure_logging(level="info", stream=stream)
        root = logging.getLogger("repro")
        try:
            assert handler in root.handlers
            logging.getLogger("repro.service.access").info("hello")
        finally:
            root.removeHandler(handler)
        assert json.loads(stream.getvalue())["event"] == "hello"


# ----------------------------------------------------------------------
# the CLI flag
# ----------------------------------------------------------------------
class TestCliProfile:
    def _write_pair(self, tmp_path):
        g1 = tmp_path / "g1.txt"
        g2 = tmp_path / "g2.txt"
        g1.write_text("a b 1\nb c 1\na c 1\nc d 1\n")
        g2.write_text("a b 3\nb c 3\na c 3\nc d 1\n")
        return str(g1), str(g2)

    def test_profile_prints_tree_to_stderr(self, tmp_path, capsys):
        from repro.cli import main

        g1, g2 = self._write_pair(tmp_path)
        assert main(["dcsga", g1, g2, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "phase sum:" in captured.err
        assert "└─ new_sea" in captured.err
        assert "backend.vertex_solver" in captured.err
        assert "phase sum" not in captured.out

    def test_profile_with_json_keeps_stdout_parseable(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        g1, g2 = self._write_pair(tmp_path)
        assert main(["dcsad", g1, g2, "--json", "--profile"]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        phases = record["timings"]["phases"]
        assert sum(phases.values()) == pytest.approx(
            record["timings"]["solve_seconds"], rel=0.10
        )
        assert "trace " in captured.err

    def test_no_profile_means_no_tree(self, tmp_path, capsys):
        from repro.cli import main

        g1, g2 = self._write_pair(tmp_path)
        assert main(["dcsad", g1, g2]) == 0
        captured = capsys.readouterr()
        assert "phase sum" not in captured.err
