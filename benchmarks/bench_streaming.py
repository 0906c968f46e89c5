"""Streaming — incremental engine vs per-event snapshot recompute.

The serving claim of `repro/stream/`: on an event workload where most
of the network is quiet most of the time, maintaining the window sums,
the difference graph, and the DCS answer *by deltas* beats rebuilding
them from scratch every step — **without changing a single alert**.

Three measurements on a planted-burst event workload sweep:

1. **Speedup**: the incremental engine (answer-faithful solve
   scheduling: reuse the last answer on a clean step, solve the active
   subgraph on a dirty one) against :func:`snapshot_recompute` (the
   naive loop: materialise the snapshot, rebuild the window mean,
   rebuild the difference graph, full solve — every step).
   Gated at >= 3x at the largest event count, with identical alert sets
   and per-step scores.
2. **Backend parity**: the sparse engine agrees with the python engine.
3. **Top-k leg** (``k=3``, the ranked-answer path): the sparse engine
   flags the python engine's alerts.
"""

from __future__ import annotations

from benchmarks._harness import emit, timed
from repro.analysis.reporting import Table
from repro.datasets.streaming import burst_event_stream
from repro.graph.sparse import scipy_available
from repro.stream import (
    StreamingDCSEngine,
    alert_keys,
    snapshot_recompute,
)

#: (n_vertices, n_steps) of the sweep; the largest is the gate point.
SIZES = ((300, 30), (700, 40), (1200, 50))
SPEEDUP_FLOOR = 3.0
WINDOW = 5
MIN_SCORE = 1e-6
#: Fired-alert threshold for the burst check: well above background
#: noise, well below the planted burst.
FIRE_THRESHOLD = 2.0
#: Answers the top-k leg keeps.
TOPK = 3


def _workload(n: int, steps: int):
    return burst_event_stream(
        n_vertices=n,
        n_steps=steps,
        base_p=0.05,
        # Sparse background churn: most of the network is quiet at any
        # step, the realistic regime.
        reobserve_p=0.003,
        anomaly_size=8,
        anomaly_start=steps // 2,
        anomaly_duration=3,
        seed=11,
    )


def _run_engine(stream, backend: str = "python", k: int = 1):
    engine = StreamingDCSEngine(
        stream.universe,
        window=WINDOW,
        min_score=MIN_SCORE,
        backend=backend,
        k=k,
    )
    alerts = engine.run(stream.log.events, n_steps=stream.n_steps)
    return engine, alerts


def _sweep():
    rows = []
    for n, steps in SIZES:
        stream = _workload(n, steps)
        (engine, mine), t_engine = timed(_run_engine, stream)
        naive, t_naive = timed(
            snapshot_recompute,
            stream.log.events,
            stream.universe,
            n_steps=stream.n_steps,
            window=WINDOW,
            min_score=MIN_SCORE,
        )
        (_, topk), t_topk = timed(_run_engine, stream, k=TOPK)
        row = {
            "n": n,
            "steps": steps,
            "events": stream.n_events,
            "t_engine": t_engine,
            "t_naive": t_naive,
            "t_topk": t_topk,
            "speedup": t_naive / t_engine,
            "stats": engine.stats,
            "alerts": mine,
            "naive_alerts": naive,
            "topk_alerts": topk,
            "stream": stream,
        }
        if scipy_available():
            (sp_engine, sp_alerts), t_sparse = timed(
                _run_engine, stream, "sparse"
            )
            row["sparse_alerts"] = sp_alerts
            row["t_sparse"] = t_sparse
            row["sparse_stats"] = sp_engine.stats
            (_, alerts), _ = timed(_run_engine, stream, "sparse", TOPK)
            row["sparse_topk_exact_alerts"] = alerts
        rows.append(row)
    return rows


def test_streaming(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = Table(
        title="Incremental streaming engine vs snapshot recompute",
        columns=[
            "n",
            "steps",
            "events",
            "naive (s)",
            "engine (s)",
            "speedup",
            "full solves (naive/engine)",
            f"k={TOPK} (s)",
        ],
    )
    for row in rows:
        naive_solves = row["steps"] - WINDOW  # one per warmed step
        table.add_row(
            [
                row["n"],
                row["steps"],
                row["events"],
                f"{row['t_naive']:.3f}",
                f"{row['t_engine']:.3f}",
                f"{row['speedup']:.1f}x",
                f"{naive_solves}/{row['stats'].full_solves}",
                f"{row['t_topk']:.3f}",
            ]
        )
    emit(
        "streaming",
        table.render(),
        data={
            "rows": [
                {
                    "n": row["n"],
                    "steps": row["steps"],
                    "events": row["events"],
                    "naive_seconds": row["t_naive"],
                    "engine_seconds": row["t_engine"],
                    "topk_seconds": row["t_topk"],
                    "speedup": row["speedup"],
                }
                for row in rows
            ],
        },
    )

    for row in rows:
        mine, naive = row["alerts"], row["naive_alerts"]
        # 1. Alert parity: the exact engine and the naive recompute flag
        #    the same (step, subset) pairs with the same scores.
        assert alert_keys(mine) == alert_keys(naive), f"n={row['n']}"
        naive_by_step = {a.step: a for a in naive}
        for alert in mine:
            reference = naive_by_step[alert.step]
            assert abs(alert.score - reference.score) <= 1e-6 * max(
                1.0, abs(reference.score)
            )
        # 2. The planted burst is flagged, exactly.
        stream = row["stream"]
        hot = [a for a in mine if a.score > FIRE_THRESHOLD]
        assert {a.step for a in hot} == set(
            range(stream.anomaly_start, stream.anomaly_end)
        )
        for alert in hot:
            assert alert.subset >= stream.anomaly_members
        # 4. Backend parity: the sparse engine flags the same alerts.
        if "sparse_alerts" in row:
            assert alert_keys(row["sparse_alerts"]) == alert_keys(mine)
        # 5. Top-k legs: the same parity on the maintained ranking path.
        topk = row["topk_alerts"]
        if "sparse_topk_exact_alerts" in row:
            assert alert_keys(row["sparse_topk_exact_alerts"]) == alert_keys(
                topk
            ), f"n={row['n']}"

    # 6. The speedup gate, at the largest event count.
    largest = rows[-1]
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental speedup {largest['speedup']:.1f}x below the "
        f"{SPEEDUP_FLOOR}x floor ({largest['events']} events)"
    )
