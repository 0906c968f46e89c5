"""Serve DCS anomaly alerts over a live event stream, incrementally.

The paper's Section I anomaly use case as a loop over time: the
expectation is the mean of the last few observations, and each new one
is contrasted against it.  The network emits sparse ``EdgeEvent``
observations and the incremental engine maintains the expectation
window, the difference graph, and the DCS answer by deltas (a stream of
whole snapshots reaches the same engine through
``repro.stream.events_between``).  The script runs the engine and the
naive per-step snapshot recompute on the same planted-burst workload,
checks they raise identical alerts, and reports the speedup and the
engine's internal work counters.

Run with::

    python examples/streaming_events.py
"""

from __future__ import annotations

import time

from repro.datasets.streaming import burst_event_stream
from repro.stream import StreamingDCSEngine, alert_keys, snapshot_recompute

THRESHOLD = 2.0


def main() -> None:
    stream = burst_event_stream(
        n_vertices=400,
        n_steps=36,
        base_p=0.05,
        reobserve_p=0.004,
        anomaly_size=7,
        anomaly_start=20,
        anomaly_duration=3,
        seed=13,
    )
    print(
        f"workload: {stream.n_events} events over {stream.n_steps} steps, "
        f"{len(stream.universe)} nodes; planted burst of "
        f"{len(stream.anomaly_members)} nodes at steps "
        f"{stream.anomaly_start}..{stream.anomaly_end - 1}\n"
    )

    engine = StreamingDCSEngine(stream.universe, window=5, min_score=1e-6)
    start = time.perf_counter()
    alerts = engine.run(stream.log.events, n_steps=stream.n_steps)
    t_engine = time.perf_counter() - start

    start = time.perf_counter()
    naive = snapshot_recompute(
        stream.log.events,
        stream.universe,
        n_steps=stream.n_steps,
        window=5,
        min_score=1e-6,
    )
    t_naive = time.perf_counter() - start

    print("step  score    source     flagged")
    for alert in alerts:
        if not alert.exceeds(THRESHOLD):
            continue
        members = " ".join(sorted(map(str, alert.subset))[:7])
        live = "<- burst live" if stream.is_anomalous_step(alert.step) else ""
        print(
            f"{alert.step:4d}  {alert.score:7.2f}  {alert.source:9s}  "
            f"{members}  {live}"
        )

    same = alert_keys(alerts.fired(THRESHOLD)) == alert_keys(
        naive.fired(THRESHOLD)
    )
    stats = engine.stats
    print(
        f"\nincremental engine: {t_engine:.3f}s   "
        f"naive snapshot recompute: {t_naive:.3f}s   "
        f"speedup: {t_naive / t_engine:.1f}x"
    )
    print(f"identical fired alerts: {same}")
    print(
        f"engine work: {stats.full_solves} full solves, "
        f"{stats.cache_hits} cache hits over {stats.steps} steps "
        f"({stats.diff_edits} difference edits from {stats.events} events)"
    )


if __name__ == "__main__":
    main()
