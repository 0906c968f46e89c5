"""Streaming — incremental engine vs per-event snapshot recompute.

The serving claim of `repro/stream/`: on an event workload where most
of the network is quiet most of the time, maintaining the window sums,
the difference graph, and the DCS answer *by deltas* beats rebuilding
them from scratch every step — **without changing a single alert**.

Three measurements on a planted-burst event workload sweep:

1. **Exact-policy speedup**: the incremental engine (``policy="exact"``,
   answer-faithful solve scheduling) against :func:`snapshot_recompute`
   (the ContrastMonitor loop: materialise the snapshot, rebuild the
   window mean, rebuild the difference graph, full solve — every step).
   Gated at >= 3x at the largest event count, with identical alert sets
   and per-step scores.
2. **Gated-policy behaviour**: the incumbent-holding driver must issue
   strictly fewer full solves while agreeing on every fired
   (above-threshold) alert.
3. **Backend parity**: the sparse engine agrees with the python engine.
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
#: Fired-alert threshold for the gated-policy comparison: well above
#: background noise, well below the planted burst.
FIRE_THRESHOLD = 2.0


def _workload(n: int, steps: int):
    return burst_event_stream(
        n_vertices=n,
        n_steps=steps,
        base_p=0.05,
        # Sparse background churn: most of the network is quiet at any
        # step, which is both the realistic regime and the one where
        # incumbent gating has locality to exploit.
        reobserve_p=0.003,
        anomaly_size=8,
        anomaly_start=steps // 2,
        anomaly_duration=3,
        seed=11,
    )


def _run_engine(stream, policy: str, backend: str = "python"):
    engine = StreamingDCSEngine(
        stream.universe,
        window=WINDOW,
        min_score=MIN_SCORE,
        policy=policy,
        backend=backend,
    )
    alerts = engine.run(stream.log.events, n_steps=stream.n_steps)
    return engine, alerts


def _entries(log):
    return [(a.step, a.subset, a.score, a.source) for a in log]


def _sweep():
    rows = []
    for n, steps in SIZES:
        stream = _workload(n, steps)
        (engine, mine), t_engine = timed(_run_engine, stream, "exact")
        naive, t_naive = timed(
            snapshot_recompute,
            stream.log.events,
            stream.universe,
            n_steps=stream.n_steps,
            window=WINDOW,
            min_score=MIN_SCORE,
        )
        (gated_engine, gated), t_gated = timed(_run_engine, stream, "gated")
        row = {
            "n": n,
            "steps": steps,
            "events": stream.n_events,
            "t_engine": t_engine,
            "t_naive": t_naive,
            "t_gated": t_gated,
            "speedup": t_naive / t_engine,
            "speedup_gated": t_naive / t_gated,
            "stats": engine.stats,
            "gated_stats": gated_engine.stats,
            "alerts": mine,
            "gated_alerts": gated,
            "naive_alerts": naive,
            "stream": stream,
        }
        if scipy_available():
            (sp_engine, sp_alerts), t_sparse = timed(
                _run_engine, stream, "exact", "sparse"
            )
            row["sparse_alerts"] = sp_alerts
            row["t_sparse"] = t_sparse
            row["sparse_stats"] = sp_engine.stats
            # Gated sparse engine: solves on the sparse backend,
            # re-scores held incumbents on the same dict difference
            # graph as the python engine, so its log must match.
            (_, sp_gated_alerts), _ = timed(
                _run_engine, stream, "gated", "sparse"
            )
            row["sparse_gated_alerts"] = sp_gated_alerts
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
            "gated (s)",
            "full solves (naive/exact/gated)",
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
                f"{row['t_gated']:.3f}",
                f"{naive_solves}/{row['stats'].full_solves}"
                f"/{row['gated_stats'].full_solves}",
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
                    "gated_seconds": row["t_gated"],
                    "speedup": row["speedup"],
                }
                for row in rows
            ],
            "gates": {
                "gated_fewer_solves": all(
                    row["gated_stats"].full_solves
                    < row["stats"].full_solves
                    for row in rows
                ),
            },
        },
    )

    for row in rows:
        mine, naive, gated = row["alerts"], row["naive_alerts"], row["gated_alerts"]
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
        # 3. Gated policy: same fired alerts, strictly fewer full solves.
        assert alert_keys(
            gated.fired(FIRE_THRESHOLD)
        ) == alert_keys(naive.fired(FIRE_THRESHOLD))
        assert row["gated_stats"].full_solves < row["stats"].full_solves
        assert row["gated_stats"].incumbent_holds > 0
        # 4. Backend parity: the sparse engines flag the same alerts,
        #    and the gated sparse log equals the python gated log entry
        #    by entry — step, subset, score and source.
        if "sparse_alerts" in row:
            assert alert_keys(row["sparse_alerts"]) == alert_keys(mine)
            assert _entries(row["sparse_gated_alerts"]) == _entries(
                gated
            ), f"n={row['n']}"

    # 5. The speedup gate, at the largest event count.
    largest = rows[-1]
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental speedup {largest['speedup']:.1f}x below the "
        f"{SPEEDUP_FLOOR}x floor ({largest['events']} events)"
    )
