"""serve-mixed: HTTP to ``repro serve --workers 2`` (router + 2 workers).

Two connections in a closed loop run one fixed, shuffled request list:
repeated solves (result-cache hits), fresh solves on the same Table II
references (misses), batches straddling shard owners, and uploads under
four rotating names.  The request path does the work here: router hop,
admission queue, registry, cache, and small solves.
"""

from __future__ import annotations

import json
import threading
import time
from statistics import fmean, median
from typing import Any, Callable, Dict, List, Optional, Tuple

from pb_common import PHASES, Pacer, Spans, Tally, http_ok, median_ms as ms, tail_percentile
from pb_http import LagProbe, Server, warm_program
import pb_inputs

SETUPS = 3
CONNECTIONS = 2
WORKERS = 2
#: misses re-solved in-process per run, as an output check
MISS_SAMPLE = 12

_OUT_OF_BAND = ("timings", "provenance")


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps({k: v for k, v in record.items() if k not in _OUT_OF_BAND}, sort_keys=True)


def _setup(seed: int, workers: int, tally: Tally, uploads: bool = True) -> Tuple[Server, Dict[str, str], Tuple[float, float]]:
    """Boot, upload 4 pairs, resolve the refs, fill the cache."""
    start = time.perf_counter()
    server = Server(workers)
    try:
        if uploads:
            for index, name in enumerate(pb_inputs.UPLOAD_NAMES):
                g1, g2 = pb_inputs.upload_pair(seed, index)
                status, body, _ = server.request("POST", "/v1/graphs", {"name": name, "g1": g1, "g2": g2})
                tally.check(http_ok(status), f"set-up upload {name}: HTTP {status} {body}")
        fill: Dict[str, str] = {}
        # One DCSAD per ref resolves it; the remaining hit requests then
        # fill the result cache.
        for request in pb_inputs.hit_requests():
            status, body, _ = server.request("POST", "/v1/solve", request)
            if tally.check(http_ok(status), f"fill {request}: HTTP {status} {body}"):
                fill[json.dumps(request, sort_keys=True)] = _canonical(body["result"])
    except BaseException:
        server.stop()
        raise
    return server, fill, (start, time.perf_counter())


def _closed_loop(server: Server, ops: List[Tuple[str, Dict[str, Any]]], spans: Optional[Spans] = None, between: Optional[Callable[[], None]] = None) -> Tuple[List[Dict[str, Any]], Tuple[float, float]]:
    """Run *ops* from CONNECTIONS clients; returns outcomes in op order
    and the phase's start and end.  *between* runs after every op."""
    outcomes: List[Dict[str, Any]] = [{} for _ in ops]
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    routes = {"hit": "/v1/solve", "miss": "/v1/solve", "batch": "/v1/batch", "upload": "/v1/graphs"}

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            kind, body = ops[index]
            rid = f"pb-{index}"
            start = time.perf_counter()
            if spans is None:
                status, reply, seconds = server.request("POST", routes[kind], body, request_id=rid)
            else:
                with spans.span(f"http.{kind}", request_id=rid):
                    status, reply, seconds = server.request("POST", routes[kind], body, request_id=rid)
            outcomes[index] = {"kind": kind, "status": status, "body": reply, "start": start, "seconds": seconds}
            if between is not None:
                between()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, (start, time.perf_counter())


def _check(ops: List[Tuple[str, Dict[str, Any]]], outcomes: List[Dict[str, Any]], fill: Dict[str, str], tally: Tally) -> None:
    """Output checks, after the timed phase; one tally op per request."""
    from repro.engine.prepared import PreparedGraph
    from repro.graph.io import read_edge_list
    import io

    misses = [i for i, (kind, _) in enumerate(ops) if kind == "miss"]
    sampled = set(misses[:: max(1, len(misses) // MISS_SAMPLE)][:MISS_SAMPLE])
    prepared: Dict[str, Any] = {}
    for index, ((kind, body), outcome) in enumerate(zip(ops, outcomes)):
        status, reply = outcome["status"], outcome["body"]
        ok = http_ok(status)
        reason = f"{kind} #{index}: HTTP {status} {str(reply)[:200]}"
        if ok and kind == "hit":
            ok = reply.get("cached") is True and _canonical(reply["result"]) == fill.get(json.dumps(body, sort_keys=True))
            reason = f"hit #{index} differs from the fill pass"
        elif ok and kind == "miss":
            ok = reply.get("cached") is False and reply.get("status") == "ok"
            if ok and index in sampled:
                ok = _canonical(reply["result"]) == _in_process(body, prepared)
                reason = f"miss #{index} differs from an in-process solve"
        elif ok and kind == "batch":
            ok = reply.get("status") == "ok" and all(r["status"] == "ok" for r in reply["results"])
        elif ok and kind == "upload":
            g1 = read_edge_list(io.StringIO(body["g1"]))
            g2 = read_edge_list(io.StringIO(body["g2"]))
            for vertex in list(g1.vertices()):
                g2.add_vertex(vertex)
            for vertex in list(g2.vertices()):
                g1.add_vertex(vertex)
            ok = reply.get("fingerprint") == PreparedGraph.from_pair(g1, g2).fingerprint
            reason = f"upload #{index} fingerprint differs"
        tally.record(ok, reason)


def _in_process(body: Dict[str, Any], prepared: Dict[str, Any]) -> str:
    """The canonical answer of one solve request, solved in-process."""
    from repro.datasets.registry import build_named
    from repro.engine.envelope import SolveRequest, solve
    from repro.engine.prepared import PreparedGraph

    ref = body["graph"]
    if ref not in prepared:
        prepared[ref] = PreparedGraph(build_named(ref, scale=0.25).graph)
    request = SolveRequest.from_params(body["kind"], {"backend": body["backend"], "tol_scale": body["tol_scale"]})
    return _canonical(solve(request, prepared[ref]).to_record())


def run(seed: int, seconds: int, trace: bool, tally: Tally, pacer: Pacer) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One run; *seconds* is unused (the request list is fixed)."""
    ops = pb_inputs.serve_requests(seed)
    warm_program()
    if trace:
        return _traced(seed, ops, tally)
    setups: List[Tuple[float, float]] = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, fill, window = _setup(seed, WORKERS, tally)
            setups.append(window)
        outcomes, phase = _closed_loop(server, ops)
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    _check(ops, outcomes, fill, tally)
    for o in outcomes:
        o["paced"] = pacer.paced(o["start"], o["start"] + o["seconds"])
    lat = [o["paced"] for o in outcomes]
    miss = {
        k: [o["paced"] for (kind, body), o in zip(ops, outcomes) if kind == "miss" and body["kind"] == k]
        for k in pb_inputs.SOLVE_KINDS
    }
    extra: Dict[str, Any] = {
        "requests": len(ops),
        "counts": pb_inputs.SERVE_COUNTS,
        "setups_s": [e - s for s, e in setups],
        "latencies_s": {k: [o["seconds"] for o in outcomes if o["kind"] == k] for k in pb_inputs.SERVE_COUNTS},
        # (start offset in the phase, wall seconds, class) of every request
        "timeline": sorted((o["start"] - phase[0], o["seconds"], o["kind"]) for o in outcomes),
    }
    return {
        "setup_s": (median(pacer.paced(s, e) for s, e in setups), len(setups)),
        "peak_rss_mb": (peak, 1),
        # the mean, not the median: the miss mix is one cluster per
        # ref, and a median would sit in the gap between two of them
        "dcsad_s": (fmean(miss["dcsad"]), len(miss["dcsad"])),
        "dcsga_s": (fmean(miss["dcsga"]), len(miss["dcsga"])),
        "req_per_s": (len(ops) / pacer.paced(*phase), len(ops)),
        # no event stream here: every request counts as one event
        "events_per_s": (len(ops) / pacer.paced(*phase), len(ops)),
        "req_p50_ms": (1000 * median(lat), len(lat)),
        "req_p99_ms": (1000 * tail_percentile(lat, 99), len(lat)),
    }, extra


def _traced(seed: int, ops: List[Tuple[str, Dict[str, Any]]], tally: Tally) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One set-up, the request list with spans, then serial hit replays
    on this cluster and on a single-process server."""
    spans = Spans()
    server, fill, window = _setup(seed, WORKERS, tally)
    try:
        probe = LagProbe(server)
        outcomes, _ = _closed_loop(server, ops, spans, between=probe)
        after, lag, lag_record = probe.finish()
        cluster_hits, traced_hits = _hit_pairs(server, spans, "cluster")
    finally:
        server.stop()
    _check(ops, outcomes, fill, tally)
    single, _, _ = _setup(seed, 1, tally, uploads=False)
    try:
        single_hits, _ = _hit_pairs(single, spans, "single")
    finally:
        single.stop()

    before = probe.before
    misses = [o["body"] for o in outcomes if o["kind"] == "miss" and http_ok(o["status"])]
    solve_s = {b: [m["result"]["timings"]["solve_seconds"] for m in misses if m["result"]["provenance"]["backend"] == b] for b in ("python", "sparse")}
    phases = {phase: 0.0 for phase in PHASES}
    for m in misses:
        for phase, value in m["result"]["timings"].get("phases", {}).items():
            phases[phase] = phases.get(phase, 0.0) + value
    batch_s = [sum(r["seconds"] for r in o["body"]["results"]) for o in outcomes if o["kind"] == "batch" and http_ok(o["status"])]
    layers: Dict[str, float] = {
        "service.app.hit_ms": ms(single_hits),
        "service.cluster.hop_ms": ms(cluster_hits) - ms(single_hits),
        "service.app.queue_wait_ms": ms([m["seconds"] - m["result"]["timings"]["solve_seconds"] for m in misses]),
        "service.app.loop_lag_max_ms": 1000 * lag,
        "batch.executor.batch_ms": ms(batch_s),
        "core.solve.python_ms": ms(solve_s["python"]),
        "core.solve.sparse_ms": ms(solve_s["sparse"]),
        "service.registry.upload_ms": ms([o["seconds"] for o in outcomes if o["kind"] == "upload"]),
        "batch.cache.hits": after["cache_hits"] - before["cache_hits"],
        "batch.cache.misses": after["cache_misses"] - before["cache_misses"],
        "service.registry.cold_builds": after["cold_builds"] - before["cold_builds"],
        "service.registry.shared_attaches": after["shared_attaches"] - before["shared_attaches"],
        "service.app.rejected": after["rejected"] - before["rejected"],
        "obs.trace.overhead_pct": 100 * (median(t / u for t, u in zip(traced_hits, cluster_hits)) - 1),
    }
    for phase, value in phases.items():
        layers[f"obs.phase.{phase}_s"] = value
    extra: Dict[str, Any] = {
        "requests": len(ops),
        "counts": pb_inputs.SERVE_COUNTS,
        "setups_s": [window[1] - window[0]],
        "loop_lag": lag_record,
        "self_times": spans.self_times(),
        "spans": spans.records,
    }
    return {name: (value, len(ops)) for name, value in layers.items()}, extra


def _hit_pairs(server: Server, spans: Spans, label: str) -> Tuple[List[float], List[float]]:
    """Serial replay of every cached solve, twice, each request sent
    untraced and then traced: the hit path alone, and what tracing it
    costs on the same server."""
    plain: List[float] = []
    traced: List[float] = []
    for round_ in range(2):
        for i, request in enumerate(pb_inputs.hit_requests()):
            rid = f"pb-{label}-hit-{round_}-{i}"
            status, body, seconds = server.request("POST", "/v1/solve", request, request_id=rid)
            with spans.span(f"http.{label}_hit", request_id=rid):
                t_status, t_body, t_seconds = server.request("POST", "/v1/solve", request, request_id=rid)
            if http_ok(status) and body.get("cached") and http_ok(t_status) and t_body.get("cached"):
                plain.append(seconds)
                traced.append(t_seconds)
    return plain, traced
