"""Service observability: request counters and latency quantiles.

Everything the ``/metrics`` route serves lives here, maintained as
plain counters — no background threads, no sampling daemons.  Latency
quantiles come from a bounded ring of the most recent observations
(:class:`LatencyWindow`), so p50/p95 reflect *current* behaviour and
memory stays constant however long the service runs.

Thread-safety: counters are mutated from the asyncio loop (request
accounting) *and* from executor threads (query outcomes land where the
work finished), so :class:`ServiceMetrics` guards every mutation and
the snapshot read with one :class:`threading.Lock`.  The ring itself
(:class:`LatencyWindow`) is deliberately unsynchronised — it is always
accessed under its owner's lock; standalone users must provide their
own exclusion.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["LatencyWindow", "ServiceMetrics"]


class LatencyWindow:
    """Ring buffer of recent latencies with nearest-rank quantiles.

    Not itself thread-safe: :class:`ServiceMetrics` serialises access
    under its single lock.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._ring: List[float] = []
        self._next = 0
        self.count = 0

    def add(self, seconds: float) -> None:
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity
        self.count += 1

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the retained window (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class ServiceMetrics:
    """Counters for one service process, snapshot on demand.

    All mutation and the snapshot read go through ``self._lock`` — the
    one lock the thread-safety contract names.  Hold times are tiny
    (dict increments, one ring write, one sort of ≤ capacity floats on
    snapshot), so contention is irrelevant next to solve times.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests_total = 0
        self.requests_by_route: Dict[str, int] = {}
        self.responses_by_status: Dict[int, int] = {}
        #: outcomes of compute requests (solve / batch / session events)
        self.queries_ok = 0
        self.queries_error = 0
        self.queries_timeout = 0
        #: compute requests refused at admission (429)
        self.rejected = 0
        #: end-to-end latency of compute requests (admission wait
        #: included — it is what the client experiences)
        self.latency = LatencyWindow()
        #: phase -> {"seconds", "calls"}: traced solve time by phase,
        #: accumulated from each solve's timings["phases"] breakdown
        self.solve_phases: Dict[str, Dict[str, float]] = {}
        #: most recent / worst event-loop scheduling lag probes
        self.loop_lag_seconds = 0.0
        self.loop_lag_max_seconds = 0.0

    def observe_request(self, route: str, status: int) -> None:
        """Count one handled request against its route and status."""
        with self._lock:
            self.requests_total += 1
            self.requests_by_route[route] = (
                self.requests_by_route.get(route, 0) + 1
            )
            self.responses_by_status[status] = (
                self.responses_by_status.get(status, 0) + 1
            )

    def observe_query(self, status: str, seconds: float) -> None:
        """Count one compute outcome (``ok`` / ``error`` / ``timeout``)."""
        with self._lock:
            if status == "ok":
                self.queries_ok += 1
            elif status == "timeout":
                self.queries_timeout += 1
            else:
                self.queries_error += 1
            self.latency.add(seconds)

    def observe_rejection(self) -> None:
        """Count one 429 at admission."""
        with self._lock:
            self.rejected += 1

    def observe_phases(self, phases: Mapping[str, float]) -> None:
        """Fold one solve's phase breakdown into the running totals."""
        with self._lock:
            for phase, seconds in phases.items():
                entry = self.solve_phases.get(phase)
                if entry is None:
                    entry = {"seconds": 0.0, "calls": 0}
                    self.solve_phases[phase] = entry
                entry["seconds"] += float(seconds)
                entry["calls"] += 1

    def observe_loop_lag(self, seconds: float) -> None:
        """Record one event-loop scheduling-lag probe."""
        with self._lock:
            self.loop_lag_seconds = seconds
            if seconds > self.loop_lag_max_seconds:
                self.loop_lag_max_seconds = seconds

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started

    def snapshot(
        self,
        cache_hits: int,
        cache_misses: int,
        warm_prepared: int,
        warm_capacity: int,
        warm_hits: int,
        warm_evictions: int,
        pending: int,
        sessions: Optional[Dict[str, Any]] = None,
        cold_builds: int = 0,
        shared_attaches: int = 0,
        worker: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The JSON the ``/metrics`` route serves.

        *sessions* is the :meth:`~repro.service.sessions.
        SessionManager.snapshot` block; ``None`` (embedders that only
        serve query routes) omits the section.  The pre-existing
        sections keep their exact shape; the observability additions
        (``loop``, ``solve_phases``) are new keys alongside them — and
        the Prometheus text form is derived from this same dict by
        :func:`repro.obs.prometheus.render_exposition`.

        *cold_builds* / *shared_attaches* extend the ``warm`` section
        with the zero-copy topology counters (how many full prepare
        passes this process paid vs. how many preparations it served by
        attaching a sibling's shared segment); *worker* tags the whole
        snapshot with this process's cluster worker id, which the
        router surfaces as the ``worker`` label when it merges
        per-worker snapshots.
        """
        lookups = cache_hits + cache_misses
        with self._lock:
            snapshot: Dict[str, Any] = {
                "uptime_seconds": round(self.uptime_seconds, 3),
                "requests": {
                    "total": self.requests_total,
                    "by_route": dict(sorted(self.requests_by_route.items())),
                    "by_status": {
                        str(status): count
                        for status, count in sorted(
                            self.responses_by_status.items()
                        )
                    },
                },
                "queries": {
                    "ok": self.queries_ok,
                    "error": self.queries_error,
                    "timeout": self.queries_timeout,
                    "rejected": self.rejected,
                    "pending": pending,
                },
                "cache": {
                    "hits": cache_hits,
                    "misses": cache_misses,
                    "hit_rate": (cache_hits / lookups) if lookups else 0.0,
                },
                "warm": {
                    "prepared": warm_prepared,
                    "capacity": warm_capacity,
                    "hits": warm_hits,
                    "evictions": warm_evictions,
                    "cold_builds": cold_builds,
                    "shared_attaches": shared_attaches,
                },
                "latency": {
                    "observations": self.latency.count,
                    "p50_seconds": self.latency.quantile(0.50),
                    "p95_seconds": self.latency.quantile(0.95),
                },
                "loop": {
                    "lag_seconds": self.loop_lag_seconds,
                    "lag_max_seconds": self.loop_lag_max_seconds,
                },
                "solve_phases": {
                    phase: dict(entry)
                    for phase, entry in sorted(self.solve_phases.items())
                },
            }
        if sessions is not None:
            snapshot["sessions"] = sessions
        if worker is not None:
            snapshot["worker"] = worker
        return snapshot
