"""Multi-worker scale-out gates: throughput, identity, prepare-once.

Drives the same concurrent mixed workload — cache-busted solves, batch
submissions, live session event pushes — against two real server
subprocesses: ``repro serve --workers 1`` (the single-process baseline)
and ``repro serve --workers 4`` (the sharded cluster of
:mod:`repro.service.cluster`).  Clients are a thread pool, so the
measured quantity is *sustained concurrent throughput*, not serial
latency.

Gates:

* **scale-out** — with >= 4 real CPUs the 4-worker cluster must
  sustain >= 3x the single process's throughput (solver work is
  GIL-bound pure Python, so worker processes are the only way to use
  the cores); on smaller machines the floor derates — ratios on a
  shared core measure scheduling, not scaling — and p95 latency is
  reported either way;
* **byte-identity** — probe solve envelopes through the router equal
  the single process's for the same requests (the router relays owner
  responses verbatim; both servers run under ``PYTHONHASHSEED=0``);
* **prepare-once** — summed ``warm.cold_builds`` across the cluster's
  workers equals the number of distinct uploaded graphs: sharding plus
  shared-segment attach means no worker ever rebuilds a graph another
  worker prepared (cross-owner batch queries attach, counted in
  ``warm.shared_attaches``);
* **clean teardown** — after SIGTERM no ``rp<router-pid>_*`` segment
  survives in ``/dev/shm``.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from benchmarks._harness import emit
from repro.analysis.reporting import Table
from repro.graph.generators import random_signed_graph
from repro.graph.io import write_edge_list
from repro.service.cluster import _shard

N_GRAPHS = 6
N_WORKERS = 4
N_SOLVES = 24
N_BATCHES = 6
# One event push per session: pushes run concurrently from the client
# pool, and a session's event times must not run backwards.
N_SESSIONS = 8
N_EVENT_PUSHES = 8
CLIENT_THREADS = 8

_CPUS = os.cpu_count() or 1
#: honest floors: process scale-out needs real cores to show up
SPEEDUP_FLOOR = 3.0 if _CPUS >= 4 else (1.2 if _CPUS >= 2 else 0.1)


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _graph_texts(tmp_path):
    """Deterministic (g1, g2) edge-list texts for N_GRAPHS uploads."""
    texts = []
    for index in range(N_GRAPHS):
        # Big enough that solver compute dominates per-request routing
        # overhead — the scale-out gate should measure the solvers.
        names = {i: f"v{i:03d}" for i in range(128)}
        g1 = (
            random_signed_graph(128, 0.10, seed=300 + index)
            .positive_part()
            .relabeled(names)
        )
        g2 = (
            random_signed_graph(128, 0.13, seed=400 + index)
            .positive_part()
            .relabeled(names)
        )
        for v in g1.vertices():
            g2.add_vertex(v)
        for v in g2.vertices():
            g1.add_vertex(v)
        p1 = tmp_path / f"scale{index}_g1.txt"
        p2 = tmp_path / f"scale{index}_g2.txt"
        write_edge_list(g1, p1)
        write_edge_list(g2, p2)
        texts.append(
            (
                p1.read_text(encoding="utf-8"),
                p2.read_text(encoding="utf-8"),
            )
        )
    return texts


def _post(base, path, payload, timeout=180):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(base, path, timeout=30):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.loads(response.read())


def _start_server(workers):
    """One ``repro serve`` subprocess; returns (proc, base_url)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--scale", "0.0",
            "--workers", str(workers),
            "--warm-capacity", "16",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"no listening banner: {banner!r}"
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def _stop_server(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()


def _upload_all(base, texts):
    for index, (g1_text, g2_text) in enumerate(texts):
        body = _post(
            base,
            "/v1/graphs",
            {"name": f"scale{index}", "g1": g1_text, "g2": g2_text},
        )
        assert len(body["fingerprint"]) == 64


def _mixed_workload():
    """The shuffled work list both servers serve — (kind, payload).

    Every solve and batch carries a unique ``tol_scale`` nudge so no
    request is a result-cache hit: the measurement is solver
    throughput, not cache lookups.  Batches deliberately mix graphs
    owned by different cluster workers, forcing the non-owner to serve
    via shared-memory attach.
    """
    work = []
    for i in range(N_SOLVES):
        work.append(
            (
                "solve",
                {
                    "graph": f"scale{i % N_GRAPHS}",
                    "kind": "dcsad" if i % 2 else "dcsga",
                    "backend": "python",
                    "tol_scale": 1e-2 * (1.0 + 1e-6 * (i + 1)),
                },
            )
        )
    # Pair graph j with j+1 in each batch so most batches straddle
    # shard owners (asserted before the run).
    for i in range(N_BATCHES):
        a, b = i % N_GRAPHS, (i + 1) % N_GRAPHS
        work.append(
            (
                "batch",
                {
                    "queries": [
                        {
                            "kind": "dcsga",
                            "graph": f"scale{a}",
                            "tol_scale": 1e-2 * (1.0 + 1e-6 * (100 + i)),
                        },
                        {
                            "kind": "dcsad",
                            "graph": f"scale{b}",
                            "tol_scale": 1e-2 * (1.0 + 1e-6 * (200 + i)),
                        },
                        {
                            "kind": "dcsga",
                            "graph": f"scale{b}",
                            "k": 2,
                            "tol_scale": 1e-2 * (1.0 + 1e-6 * (300 + i)),
                        },
                    ]
                },
            )
        )
    for i in range(N_EVENT_PUSHES):
        events = [
            {"t": i * 4 + j, "u": f"v{j:02d}", "v": f"v{j + 1:02d}",
             "w": 1.0 + (i + j) % 3}
            for j in range(4)
        ]
        work.append(("events", {"session_index": i, "events": events}))
    random.Random(0).shuffle(work)
    return work


def _run_load(base, work, sessions):
    """Serve *work* from CLIENT_THREADS concurrent clients.

    Returns ``(wall_seconds, latencies, bodies)``; raises on any
    non-ok outcome so a silently failing server cannot "win" the
    throughput comparison.
    """

    def one(item):
        kind, payload = item
        start = time.perf_counter()
        if kind == "solve":
            body = _post(base, "/v1/solve", payload)
            assert body["status"] == "ok", body
        elif kind == "batch":
            body = _post(base, "/v1/batch", payload)
            assert body["status"] == "ok", body
        else:
            sid = sessions[payload["session_index"]]
            body = _post(
                base,
                f"/v1/stream/sessions/{sid}/events",
                {"events": payload["events"]},
            )
            assert body["status"] == "ok", body
        return time.perf_counter() - start, (kind, body)

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        outcomes = list(pool.map(one, work))
    wall = time.perf_counter() - wall_start
    latencies = sorted(seconds for seconds, _ in outcomes)
    return wall, latencies, [body for _, body in outcomes]


def _create_sessions(base):
    sids = []
    for _ in range(N_SESSIONS):
        body = _post(
            base,
            "/v1/stream/sessions",
            {
                "universe": [f"v{i:02d}" for i in range(8)],
                "window": 4,
                "threshold": 1e9,  # alerts are not the point here
            },
        )
        sids.append(body["session"])
    return sids


def _probe_solves(base):
    """Fixed-parameter solves for the byte-identity comparison."""
    bodies = []
    for index in range(N_GRAPHS):
        for kind in ("dcsad", "dcsga"):
            bodies.append(
                _post(
                    base,
                    "/v1/solve",
                    {
                        "graph": f"scale{index}",
                        "kind": kind,
                        "backend": "python",
                    },
                )
            )
    return bodies


def _strip(record):
    return json.dumps(
        {k: v for k, v in record.items() if k != "timings"},
        sort_keys=True,
    )


def _p95(latencies):
    return latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]


def test_service_scale_out(benchmark, tmp_path):
    texts = _graph_texts(tmp_path)
    work = _mixed_workload()

    # The batches must actually straddle shard owners for the
    # shared-attach assertion to mean anything.
    owners = {f"scale{i}": _shard(f"scale{i}", N_WORKERS)
              for i in range(N_GRAPHS)}
    assert len(set(owners.values())) > 1, owners

    # ---- single process baseline ------------------------------------
    proc, base = _start_server(1)
    try:
        _upload_all(base, texts)
        single_probe = _probe_solves(base)
        sessions = _create_sessions(base)
        single_wall, single_lat, _ = _run_load(base, work, sessions)
        single_metrics = _get(base, "/metrics")
    finally:
        _stop_server(proc)

    # ---- 4-worker cluster -------------------------------------------
    proc, base = _start_server(N_WORKERS)
    router_pid = proc.pid
    try:
        _upload_all(base, texts)
        # Let every export announcement land before mixed traffic.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            health = _get(base, "/healthz")
            if health["cluster"]["segments_announced"] >= N_GRAPHS:
                break
            time.sleep(0.1)
        cluster_probe = _probe_solves(base)
        sessions = _create_sessions(base)

        def cluster_pass():
            return _run_load(base, work, sessions)

        cluster_wall, cluster_lat, _ = benchmark.pedantic(
            cluster_pass, rounds=1, iterations=1
        )
        cluster_metrics = _get(base, "/metrics")
        health = _get(base, "/healthz")
    finally:
        _stop_server(proc)

    total = len(work)
    single_rps = total / single_wall
    cluster_rps = total / cluster_wall
    speedup = cluster_rps / single_rps
    workers = cluster_metrics["workers"]
    cold_builds = sum(w["warm"]["cold_builds"] for w in workers)
    shared_attaches = sum(w["warm"]["shared_attaches"] for w in workers)
    leftovers = glob.glob(f"/dev/shm/rp{router_pid}_*")

    table = Table(
        title=(
            f"Concurrent mixed traffic ({total} requests, "
            f"{CLIENT_THREADS} client threads, {_CPUS} CPUs)"
        ),
        columns=[
            "topology", "wall (s)", "req/s", "p50 (ms)", "p95 (ms)",
        ],
    )
    table.add_row(
        [
            "1 process",
            f"{single_wall:.2f}",
            f"{single_rps:.1f}",
            f"{1000 * single_lat[len(single_lat) // 2]:.0f}",
            f"{1000 * _p95(single_lat):.0f}",
        ]
    )
    table.add_row(
        [
            f"{N_WORKERS} workers",
            f"{cluster_wall:.2f}",
            f"{cluster_rps:.1f}",
            f"{1000 * cluster_lat[len(cluster_lat) // 2]:.0f}",
            f"{1000 * _p95(cluster_lat):.0f}",
        ]
    )
    gates = {
        "all_answered": True,  # _run_load asserted each body
        "byte_identical_probes": [
            _strip(b["result"]) for b in cluster_probe
        ] == [_strip(b["result"]) for b in single_probe],
        "prepare_once": cold_builds == N_GRAPHS,
        "shared_attach_used": shared_attaches >= 1,
        "no_leaked_segments": leftovers == [],
        "speedup_floor": speedup >= SPEEDUP_FLOOR,
    }
    emit(
        "service_scale",
        table.render()
        + f"\nscale-out speedup: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x at {_CPUS} CPUs)"
        + f"\ncold builds across workers: {cold_builds} "
        f"(graphs uploaded: {N_GRAPHS}), "
        f"shared-memory attaches: {shared_attaches}"
        + f"\nworker restarts: {health['cluster']['restarts']}, "
        f"segments announced: {health['cluster']['segments_announced']}",
        data={
            "cpus": _CPUS,
            "requests": total,
            "client_threads": CLIENT_THREADS,
            "single_wall_seconds": single_wall,
            "cluster_wall_seconds": cluster_wall,
            "single_rps": single_rps,
            "cluster_rps": cluster_rps,
            "single_p95_seconds": _p95(single_lat),
            "cluster_p95_seconds": _p95(cluster_lat),
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "cold_builds": cold_builds,
            "shared_attaches": shared_attaches,
            "single_cold_builds": single_metrics["warm"]["cold_builds"],
            "gates": gates,
        },
    )

    # Gate: envelopes through the router are the single process's bytes.
    assert gates["byte_identical_probes"]

    # Gate: each uploaded graph was fully prepared exactly once across
    # the whole cluster — the owner built it, everyone else attached.
    assert gates["prepare_once"], (
        f"expected {N_GRAPHS} cold builds across the cluster, "
        f"got {cold_builds} "
        f"(per worker: {[w['warm']['cold_builds'] for w in workers]})"
    )
    assert gates["shared_attach_used"], (
        "cross-owner batch queries never attached a shared segment"
    )

    # Gate: no /dev/shm segment survived the router's SIGTERM sweep.
    assert gates["no_leaked_segments"], leftovers

    # Gate: sustained throughput scale-out (derated below 4 CPUs).
    assert gates["speedup_floor"], (
        f"{N_WORKERS}-worker cluster sustained {speedup:.2f}x the "
        f"single process on concurrent mixed traffic — below the "
        f"{SPEEDUP_FLOOR}x floor for {_CPUS} CPUs "
        f"(single {single_rps:.1f} req/s, cluster {cluster_rps:.1f} "
        f"req/s, cluster p95 {1000 * _p95(cluster_lat):.0f} ms)"
    )
