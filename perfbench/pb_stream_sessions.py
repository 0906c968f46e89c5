"""stream-sessions: HTTP to a single-process ``repro serve`` (defaults).

Eight tenants each stream one seeded ``burst_event_stream``.  Two
connections in a closed loop post one step per request (``advance_to``
closes it) and poll the alert feed of the tenant written last.  Writes
run beside reads on the same session state; the router and the result
cache are bypassed.
"""

from __future__ import annotations

import threading
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from pb_common import Pacer, Spans, Tally, http_ok, median_ms as ms, tail_percentile
from pb_http import LagProbe, Server, warm_program
import pb_inputs

SETUPS = 3
CONNECTIONS = 2


def _create(server: Server, tenants: List[pb_inputs.TenantStream], tally: Tally) -> List[str]:
    """Create every tenant and warm it with its step-0 batch."""
    sids = []
    for tenant in tenants:
        status, body, _ = server.request(
            "POST",
            "/v1/stream/sessions",
            {"universe": tenant.universe, "window": pb_inputs.WINDOW, "threshold": pb_inputs.ALERT_THRESHOLD},
        )
        if not tally.check(http_ok(status), f"session create: HTTP {status} {body}"):
            raise RuntimeError(f"cannot create a session: HTTP {status} {body}")
        sid = body["session"]
        status, body, _ = server.request(
            "POST", f"/v1/stream/sessions/{sid}/events", {"events": tenant.steps[0], "advance_to": 1}
        )
        tally.check(http_ok(status), f"warm step 0 of {sid}: HTTP {status} {body}")
        sids.append(sid)
    return sids


def _setup(tenants: List[pb_inputs.TenantStream], tally: Tally) -> Tuple[Server, List[str], Tuple[float, float]]:
    start = time.perf_counter()
    server = Server(1)
    try:
        sids = _create(server, tenants, tally)
    except BaseException:
        server.stop()
        raise
    return server, sids, (start, time.perf_counter())


def _closed_loop(server: Server, sids: List[str], tenants: List[pb_inputs.TenantStream], spans: Optional[Spans] = None, between: Optional[Callable[[], None]] = None) -> Tuple[List[Dict[str, Any]], Tuple[float, float]]:
    """Each connection runs its own fixed op list; returns outcomes and
    the phase's start and end.  *between* runs after every op."""
    last = {"tenant": 0}
    cursors = [0] * len(sids)
    results: List[List[Dict[str, Any]]] = [[] for _ in range(CONNECTIONS)]

    def client(connection: int) -> None:
        for op, tenant, step in pb_inputs.stream_ops(connection, CONNECTIONS):
            if op == "post":
                path = f"/v1/stream/sessions/{sids[tenant]}/events"
                method, body = "POST", {"events": tenants[tenant].steps[step], "advance_to": step + 1}
            else:
                tenant = last["tenant"]
                path = f"/v1/stream/sessions/{sids[tenant]}/alerts?cursor={cursors[tenant]}"
                method, body = "GET", None
            rid = f"pb-{connection}-{op}-{tenant}-{step}"
            start = time.perf_counter()
            if spans is None:
                status, reply, seconds = server.request(method, path, body, request_id=rid)
            else:
                with spans.span(f"http.{op}", request_id=rid):
                    status, reply, seconds = server.request(method, path, body, request_id=rid)
            if op == "post":
                last["tenant"] = tenant
                if http_ok(status):
                    cursors[tenant] = max(cursors[tenant], reply.get("cursor", 0))
            events = len(body["events"]) if body else 0
            results[connection].append({"op": op, "tenant": tenant, "status": status, "body": reply, "start": start, "seconds": seconds, "events": events})
            if between is not None:
                between()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for part in results for o in part], (start, time.perf_counter())


def _replay(tenant: pb_inputs.TenantStream, spans: Optional[Spans] = None) -> List[Tuple[int, Tuple[str, ...], float]]:
    """In-process replay of one tenant with the session's config."""
    from repro.stream.engine import StreamingDCSEngine
    from repro.stream.events import EdgeEvent

    engine = StreamingDCSEngine(tenant.universe, window=pb_inputs.WINDOW, min_score=pb_inputs.ALERT_THRESHOLD)
    alerts = []
    for step, records in enumerate(tenant.steps):
        events = [EdgeEvent(**record) for record in records]
        if spans is None:
            for event in events:
                alerts.extend(engine.ingest(event))
            alerts.extend(engine.advance_to(step + 1))
        else:
            with spans.span("stream.step"):
                for event in events:
                    with spans.span("StreamingDCSEngine.ingest"):
                        alerts.extend(engine.ingest(event))
                with spans.span("StreamingDCSEngine.advance_to"):
                    alerts.extend(engine.advance_to(step + 1))
    return [(a.step, tuple(sorted(str(v) for v in a.subset)), a.score) for a in alerts]


def _final_feeds(server: Server, sids: List[str]) -> List[Dict[str, Any]]:
    return [server.request("GET", f"/v1/stream/sessions/{sid}/alerts?cursor=0")[1] for sid in sids]


def _check(outcomes: List[Dict[str, Any]], feeds: List[Dict[str, Any]], tenants: List[pb_inputs.TenantStream], expected: List[Any], tally: Tally) -> None:
    for outcome in outcomes:
        tally.record(http_ok(outcome["status"]), f"{outcome['op']} tenant {outcome['tenant']}: HTTP {outcome['status']} {str(outcome['body'])[:200]}")
    # The final feed read of each tenant is one more op, whose answer
    # must equal an in-process replay and fall inside the planted burst.
    for index, (feed, tenant, replayed) in enumerate(zip(feeds, tenants, expected)):
        served = [(a["step"], tuple(a["subset"]), a["score"]) for a in feed.get("alerts", [])]
        in_burst = bool(served) and all(tenant.burst[0] <= step < tenant.burst[1] for step, _, _ in served)
        tally.record(
            served == replayed and in_burst,
            f"tenant {index}: served alerts {served} vs in-process replay {replayed}, burst {tenant.burst}",
        )


def run(seed: int, seconds: int, trace: bool, tally: Tally, pacer: Pacer) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One run; *seconds* is unused (the op lists are fixed)."""
    tenants = pb_inputs.tenant_streams(seed)
    warm_program()
    expected = [_replay(tenant) for tenant in tenants]
    if trace:
        return _traced(tenants, expected, tally)
    setups: List[Tuple[float, float]] = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, sids, window = _setup(tenants, tally)
            setups.append(window)
        outcomes, phase = _closed_loop(server, sids, tenants)
        feeds = _final_feeds(server, sids)
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    _check(outcomes, feeds, tenants, expected, tally)
    for o in outcomes:
        o["paced"] = pacer.paced(o["start"], o["start"] + o["seconds"])
    lat = [o["paced"] for o in outcomes]
    posts = [o["paced"] for o in outcomes if o["op"] == "post"]
    events = sum(o["events"] for o in outcomes)
    busy = pacer.paced(*phase)
    extra: Dict[str, Any] = {
        "requests": len(outcomes),
        "events": events,
        "setups_s": [e - s for s, e in setups],
        "latencies_s": {op: [o["seconds"] for o in outcomes if o["op"] == op] for op in ("post", "poll")},
        # (start offset in the phase, wall seconds, op) of every request
        "timeline": sorted((o["start"] - phase[0], o["seconds"], o["op"]) for o in outcomes),
    }
    return {
        "setup_s": (median(pacer.paced(s, e) for s, e in setups), len(setups)),
        "peak_rss_mb": (peak, 1),
        # every post closes one step, which runs one DCSAD solve
        "dcsad_s": (median(posts), len(posts)),
        # no DCSGA runs here: the same step latency stands in
        "dcsga_s": (median(posts), len(posts)),
        "req_per_s": (len(outcomes) / busy, len(outcomes)),
        "events_per_s": (events / busy, events),
        "req_p50_ms": (1000 * median(lat), len(lat)),
        "req_p99_ms": (1000 * tail_percentile(lat, 99), len(lat)),
    }, extra


#: alert-poll rounds over every tenant, each poll sent untraced then
#: traced, that measure ``obs.trace.overhead_pct`` on one server
OVERHEAD_ROUNDS = 4


def _traced(tenants: List[pb_inputs.TenantStream], expected: List[Any], tally: Tally) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One set-up, the op lists with spans, then paired alert polls."""
    spans = Spans()
    server, sids, window = _setup(tenants, tally)
    try:
        probe = LagProbe(server)
        traced, _ = _closed_loop(server, sids, tenants, spans, between=probe)
        after, lag, lag_record = probe.finish()
        feeds = _final_feeds(server, sids)
        ratios = []
        for round_ in range(OVERHEAD_ROUNDS):
            for sid in sids:
                path = f"/v1/stream/sessions/{sid}/alerts?cursor=0"
                rid = f"pb-overhead-{round_}-{sid}"
                status, _, plain = server.request("GET", path, request_id=rid)
                with spans.span("http.poll_pair", request_id=rid):
                    t_status, _, seconds = server.request("GET", path, request_id=rid)
                if http_ok(status) and http_ok(t_status):
                    ratios.append(seconds / plain)
    finally:
        server.stop()
    _check(traced, feeds, tenants, expected, tally)
    replay_spans = Spans()
    _replay(tenants[0], replay_spans)
    steps = replay_spans.durations("stream.step")[1:]
    stats = [feed.get("stats", {}) for feed in feeds]

    layers = {
        "service.sessions.write_ms": ms([o["seconds"] for o in traced if o["op"] == "post"]),
        "service.sessions.poll_ms": ms([o["seconds"] for o in traced if o["op"] == "poll"]),
        "stream.engine.step_ms": ms(steps),
        "service.app.loop_lag_max_ms": 1000 * lag,
        "stream.engine.full_solves": float(sum(s.get("full_solves", 0) for s in stats)),
        "stream.engine.cache_hits": float(sum(s.get("cache_hits", 0) for s in stats)),
        "service.sessions.alerts": float(sum(len(feed.get("alerts", [])) for feed in feeds)),
        "service.app.rejected": after["rejected"] - probe.before["rejected"],
        "obs.trace.overhead_pct": 100 * (median(ratios) - 1),
    }
    extra: Dict[str, Any] = {
        "requests": len(traced),
        "setups_s": [window[1] - window[0]],
        "loop_lag": lag_record,
        "self_times": {**spans.self_times(), **replay_spans.self_times()},
        "spans": spans.records,
    }
    return {name: (value, len(traced)) for name, value in layers.items()}, extra
