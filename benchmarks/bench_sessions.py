"""Multi-tenant session layer — K live tenants vs K naive replays.

The serving claim of ``repro/service/sessions.py``: one process can
hold K concurrent stream sessions — each a resident
:class:`~repro.stream.engine.StreamingDCSEngine` with its own clock,
alert log and registry charge — and ingest interleaved event batches
faster than K independent :func:`snapshot_recompute` replays of the
same streams, **without changing a single alert for any tenant**.

The gate is throughput: aggregate events/sec through the session
manager (create, interleaved ``apply_events`` batches, cursor polls,
close) must be >= 3x the events/sec of the naive per-tenant replay
loop.  On one core there is no parallelism to hide behind — the whole
margin comes from the incremental engine each session wraps.
"""

from __future__ import annotations

from collections import defaultdict

from benchmarks._harness import emit, timed
from repro.analysis.reporting import Table
from repro.datasets.streaming import burst_event_stream
from repro.service.registry import GraphRegistry
from repro.service.sessions import SessionManager
from repro.stream import alert_keys, snapshot_recompute

TENANTS = 8
SPEEDUP_FLOOR = 3.0
WINDOW = 5
MIN_SCORE = 1e-6
#: steps per interleaved batch — every tenant advances in lockstep
#: rounds, so the manager is always holding K mid-stream engines.
BATCH_STEPS = 5
N_VERTICES = 250
N_STEPS = 30


def _workload(seed: int):
    return burst_event_stream(
        n_vertices=N_VERTICES,
        n_steps=N_STEPS,
        base_p=0.05,
        reobserve_p=0.003,
        anomaly_size=8,
        anomaly_start=N_STEPS // 2,
        anomaly_duration=3,
        seed=seed,
    )


def _by_chunk(stream):
    """The tenant's events grouped into BATCH_STEPS-sized step ranges."""
    chunks = defaultdict(list)
    for event in stream.log.events:
        chunks[event.t // BATCH_STEPS].append(event)
    n_chunks = (stream.n_steps + BATCH_STEPS - 1) // BATCH_STEPS
    return [chunks[i] for i in range(n_chunks)], n_chunks


def _run_sessions(streams):
    """Create K tenants, feed them in interleaved rounds, drain alerts.

    Returns ``{tenant: (alert_records, registry_peak_charge)}`` — the
    cursor-polled alert stream per tenant plus evidence the sessions
    were actually charged while resident.
    """
    registry = GraphRegistry(capacity=8, scale=0.0)
    manager = SessionManager(registry, max_sessions=TENANTS)
    sids = []
    for tenant, stream in enumerate(streams):
        session = manager.create(
            universe=stream.universe,
            window=WINDOW,
            min_score=MIN_SCORE,
        )
        sids.append(session.sid)
    chunked = [_by_chunk(stream) for stream in streams]
    n_rounds = max(n for _, n in chunked)
    records = {sid: [] for sid in sids}
    cursors = {sid: 0 for sid in sids}
    for round_index in range(n_rounds):
        close_to = min((round_index + 1) * BATCH_STEPS, N_STEPS)
        for sid, (chunks, _) in zip(sids, chunked):
            batch = (
                chunks[round_index] if round_index < len(chunks) else []
            )
            manager.apply_events(sid, batch, advance_to=close_to)
            fresh, cursors[sid], _ = manager.alerts_since(
                sid, cursors[sid]
            )
            records[sid].extend(fresh)
    peak_charge = registry.charged_cells
    for sid in sids:
        assert manager.close(sid) is not None
    assert manager.active == 0
    assert registry.charged_cells == 0
    return [records[sid] for sid in sids], peak_charge


def _run_naive(streams):
    """K independent snapshot-recompute replays (the tenant baseline)."""
    return [
        snapshot_recompute(
            stream.log.events,
            stream.universe,
            n_steps=stream.n_steps,
            window=WINDOW,
            min_score=MIN_SCORE,
        )
        for stream in streams
    ]


def test_sessions(benchmark):
    streams = [_workload(20 + tenant) for tenant in range(TENANTS)]
    total_events = sum(stream.n_events for stream in streams)

    def _sweep():
        (mine, peak_charge), t_sessions = timed(_run_sessions, streams)
        naive, t_naive = timed(_run_naive, streams)
        return mine, peak_charge, t_sessions, naive, t_naive

    mine, peak_charge, t_sessions, naive, t_naive = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    eps_sessions = total_events / t_sessions
    eps_naive = total_events / t_naive
    speedup = eps_sessions / eps_naive

    table = Table(
        title=f"{TENANTS} live stream sessions vs {TENANTS} naive replays",
        columns=[
            "tenants",
            "events",
            "naive (s)",
            "sessions (s)",
            "naive ev/s",
            "session ev/s",
            "speedup",
            "peak charge",
        ],
    )
    table.add_row(
        [
            TENANTS,
            total_events,
            f"{t_naive:.3f}",
            f"{t_sessions:.3f}",
            f"{eps_naive:.0f}",
            f"{eps_sessions:.0f}",
            f"{speedup:.1f}x",
            peak_charge,
        ]
    )
    emit(
        "sessions",
        table.render(),
        data={
            "tenants": TENANTS,
            "events": total_events,
            "naive_seconds": t_naive,
            "sessions_seconds": t_sessions,
            "events_per_second": eps_sessions,
            "speedup": speedup,
            "peak_charge": peak_charge,
            "gates": {
                "peak_charge_positive": peak_charge > 0,
                "speedup_floor": speedup >= SPEEDUP_FLOOR,
            },
        },
    )

    # 1. Per-tenant alert parity: every session saw exactly the alerts
    #    its own naive replay produces — same (step, subset) keys, same
    #    scores to float tolerance.
    for tenant, (session_alerts, reference) in enumerate(
        zip(mine, naive)
    ):
        keys = {
            (record["step"], frozenset(record["subset"]))
            for record in session_alerts
        }
        assert keys == alert_keys(reference), f"tenant {tenant}"
        reference_by_step = {alert.step: alert for alert in reference}
        for record in session_alerts:
            expected = reference_by_step[record["step"]]
            assert abs(record["score"] - expected.score) <= 1e-6 * max(
                1.0, abs(expected.score)
            ), f"tenant {tenant} step {record['step']}"
    # 2. The tenants were really resident together: the registry held a
    #    positive aggregate charge right up to the closes.
    assert peak_charge > 0

    # 3. The throughput gate.
    assert speedup >= SPEEDUP_FLOOR, (
        f"session throughput {speedup:.1f}x the naive replays — below "
        f"the {SPEEDUP_FLOOR}x floor ({total_events} events, "
        f"{TENANTS} tenants)"
    )
