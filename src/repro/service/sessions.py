"""Multi-tenant live stream sessions — the resident monitoring surface.

A *session* is the service's stream path: a tenant creates one
(:class:`SessionManager.create`), posts event batches as its network
produces them, and polls the accumulated alert feed by cursor.  Each
session wraps one :class:`~repro.stream.engine.StreamingDCSEngine`
(window, measure, policy, ``k`` incumbents — the full engine
vocabulary), so the paper's anomaly-monitoring story runs resident
instead of per-request.  Posting a finished log in batches leaves the
feed :func:`~repro.stream.engine.replay_events` gives on that log.

Isolation is the design centre:

* **State** — every session owns its engine behind its own lock, held
  through a batch's solves; what a finished batch publishes (alerts,
  step, phase stats) sits behind a lock held only for a copy, so polls
  never wait.  The service's one worker thread runs batches in turn.
* **Faults** — a solver blowing up mid-step marks *that* session failed
  (:class:`SessionFailedError` on further use; ``close`` still works)
  and touches nothing else; client mistakes (unknown vertices,
  out-of-order timestamps) are rejected *before* any event is applied,
  so a 400 never leaves a session half-ingested.
* **Memory** — a session charges its live footprint (universe +
  difference edges + window history) to the
  :class:`~repro.service.registry.GraphRegistry`, whose budget sheds
  warm preparations LRU-first under session pressure; idle sessions
  expire after ``ttl`` seconds and refund their charge.

Admission control stays with the service: ``max_sessions`` bounds how
many tenants may be resident (:class:`SessionLimitError` maps to 429),
and event batches take a job slot on the app's worker thread,
inheriting its 429/504 behaviour.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InputMismatchError
from repro.service.registry import GraphRegistry
from repro.stream.engine import StreamingDCSEngine
from repro.stream.events import EdgeEvent

__all__ = [
    "SessionFailedError",
    "SessionLimitError",
    "SessionManager",
    "StreamSession",
    "events_from_records",
]


class SessionLimitError(RuntimeError):
    """Too many resident sessions (maps to HTTP 429)."""


class SessionFailedError(RuntimeError):
    """This session's solver failed; it only accepts ``close`` now
    (maps to HTTP 409 — the conflict is with the session's state, not
    the request)."""


def events_from_records(records: Any) -> List[EdgeEvent]:
    """Parse a JSON event batch (``[{"t","u","v","w"}, ...]``).

    Field validation is the :class:`~repro.stream.events.EdgeEvent`
    constructor's (self-loops, negative steps, non-finite weights all
    raise there); this wrapper only enforces the envelope shape so a
    malformed batch reads as a client error, never a server one.
    """
    if not isinstance(records, list) or not records:
        raise InputMismatchError(
            "events must be a non-empty JSON array of "
            '{"t", "u", "v", "w"} records'
        )
    events: List[EdgeEvent] = []
    for record in records:
        if not isinstance(record, dict):
            raise InputMismatchError(
                f"event record must be an object: {record!r}"
            )
        unknown = set(record) - {"t", "u", "v", "w"}
        if unknown:
            raise InputMismatchError(
                f"unknown event field(s) {sorted(unknown)}"
            )
        for field in ("t", "u", "v"):
            if field not in record:
                raise InputMismatchError(
                    f"event record missing field {field!r}: {record!r}"
                )
        t = record["t"]
        if isinstance(t, bool) or not isinstance(t, int):
            raise InputMismatchError(f"event 't' must be an integer: {t!r}")
        w = record.get("w", 1.0)
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise InputMismatchError(f"event 'w' must be a number: {w!r}")
        events.append(
            EdgeEvent(t=t, u=str(record["u"]), v=str(record["v"]), w=float(w))
        )
    return events


class StreamSession:
    """One tenant: an engine, its alert feed, and its bookkeeping.

    A batch runs under :attr:`lock` (the manager acquires it) and
    publishes under :attr:`feed_lock`, which a poll takes alone; the
    alert feed is append-only, so cursors are simple indices.
    """

    def __init__(
        self,
        sid: str,
        engine: StreamingDCSEngine,
        config: Dict[str, Any],
    ) -> None:
        self.sid = sid
        self.engine = engine
        #: the creation parameters echoed back by GET (diagnostics)
        self.config = config
        self.lock = threading.Lock()
        #: guards the published alerts, step and phase_stats below
        self.feed_lock = threading.Lock()
        #: every alert the engine ever emitted, as JSON-ready dicts
        self.alerts: List[Dict[str, Any]] = []
        #: engine step and phase_stats() as of the last finished batch
        self.step = engine.step
        self.phase_stats = engine.phase_stats()
        self.created = time.monotonic()
        self.last_used = self.created
        #: error text once the solver failed (session is then read/close
        #: only); ``None`` while healthy
        self.failed: Optional[str] = None
        self.events_seen = 0
        self.batches = 0

    @property
    def cells(self) -> int:
        """Resident footprint proxy: universe + live edge structures."""
        return (
            len(self.engine.universe)
            + self.engine.difference.num_edges
            + self.engine.accumulator.active_edges
        )

    @property
    def owner(self) -> str:
        """The registry charge key of this session."""
        return f"session:{self.sid}"

    def describe(self) -> Dict[str, Any]:
        """JSON summary (caller holds :attr:`lock`)."""
        stats = self.engine.stats
        return {
            "session": self.sid,
            "config": dict(self.config),
            "step": self.engine.step,
            "events": self.events_seen,
            "batches": self.batches,
            "alerts": len(self.alerts),
            "cells": self.cells,
            "failed": self.failed,
            "idle_seconds": round(time.monotonic() - self.last_used, 3),
            "stats": {
                "steps": stats.steps,
                "full_solves": stats.full_solves,
                "cache_hits": stats.cache_hits,
                "incumbent_holds": stats.incumbent_holds,
                "local_probes": stats.local_probes,
                "drift_fallbacks": stats.drift_fallbacks,
            },
        }


class SessionManager:
    """Owns every resident session; all public methods are thread-safe.

    The manager's lock only guards the session table (create / lookup /
    close); a batch runs under the session's own lock, a poll under its
    feed lock, so slow ingestion never blocks any tenant's poll.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        max_sessions: int = 32,
        ttl: Optional[float] = None,
        sid_prefix: str = "s",
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive when set")
        self.registry = registry
        self.max_sessions = max_sessions
        self.ttl = ttl
        #: leading token of generated session ids — cluster workers use
        #: ``w<i>`` so the router can route session traffic by sid alone
        self.sid_prefix = sid_prefix
        self._sessions: Dict[str, StreamSession] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self.created = 0
        self.closed = 0
        self.expired = 0
        self.failures = 0
        self.events_total = 0
        self.alerts_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        universe: Optional[Iterable[Any]] = None,
        graph: Optional[str] = None,
        **engine_kwargs: Any,
    ) -> StreamSession:
        """Create a session over an explicit *universe* or a registered
        *graph* (whose vertex set becomes the universe).

        Engine keyword arguments (``window``, ``measure``, ``policy``,
        ``k``, ``min_score``, ...) pass through to
        :class:`~repro.stream.engine.StreamingDCSEngine`, which
        validates them — a bad configuration fails here, before the
        session exists.  Raises :class:`SessionLimitError` when
        ``max_sessions`` tenants are already resident.
        """
        if (universe is None) == (graph is None):
            raise InputMismatchError(
                "create needs exactly one of 'universe' (vertex list) "
                "or 'graph' (registered name)"
            )
        if graph is not None:
            # May build cold — deliberately outside the manager lock.
            prepared = self.registry.resolve(graph)
            members: List[Any] = sorted(
                prepared.gd.vertices(), key=repr
            )
        else:
            members = [str(v) for v in universe]  # type: ignore[union-attr]
        engine = StreamingDCSEngine(members, **engine_kwargs)
        config: Dict[str, Any] = {
            "window": engine.window,
            "measure": engine.measure,
            "policy": engine.policy,
            "warmup": engine.warmup,
            "backend": engine.backend,
            "threshold": engine.min_score,
            "k": engine.k,
            "universe_size": len(engine.universe),
        }
        if graph is not None:
            config["graph"] = graph
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions} "
                    "resident); close or let one expire first"
                )
            sid = f"{self.sid_prefix}-{next(self._ids)}"
            session = StreamSession(sid, engine, config)
            self._sessions[sid] = session
            self.created += 1
        self.registry.charge(session.owner, session.cells)
        return session

    def get(self, sid: str) -> StreamSession:
        """The live session *sid*; ``KeyError`` (-> 404) if absent."""
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise KeyError(f"no session {sid!r}")
        return session

    def close(self, sid: str) -> Optional[Dict[str, Any]]:
        """Tear down *sid*; returns its final summary, or ``None`` if
        it was not resident (idempotent — a double close is not an
        error worth a 404 race)."""
        with self._lock:
            session = self._sessions.pop(sid, None)
            if session is None:
                return None
            self.closed += 1
        self.registry.discharge(session.owner)
        with session.lock:
            return session.describe()

    def expire_idle(self, now: Optional[float] = None) -> List[str]:
        """Close every session idle beyond ``ttl``; returns their ids.

        *now* is injectable (tests) and defaults to the monotonic
        clock.  With no ``ttl`` this is a no-op.
        """
        if self.ttl is None:
            return []
        moment = time.monotonic() if now is None else now
        with self._lock:
            stale = [
                sid
                for sid, session in self._sessions.items()
                if moment - session.last_used > self.ttl
            ]
            for sid in stale:
                session = self._sessions.pop(sid)
                self.registry.discharge(session.owner)
                self.expired += 1
        return stale

    # ------------------------------------------------------------------
    # per-session operations
    # ------------------------------------------------------------------
    def apply_events(
        self,
        sid: str,
        events: List[EdgeEvent],
        advance_to: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int, int]:
        """Ingest one batch; returns ``(new_alerts, cursor, step)``.

        The whole batch is validated against the engine's universe and
        clock *before* the first event applies, so client errors
        (:class:`~repro.exceptions.InputMismatchError` — 400) leave
        the session exactly as it was.  Any exception past that point
        is a solver fault: the session is marked failed (further
        batches raise :class:`SessionFailedError`) and the error
        propagates so the route can answer 422 — other sessions are
        untouched.
        """
        session = self.get(sid)
        with session.lock:
            if session.failed is not None:
                raise SessionFailedError(
                    f"session {sid} failed earlier ({session.failed}); "
                    "close it and create a new one"
                )
            session.last_used = time.monotonic()
            engine = session.engine
            clock = engine.step
            for event in events:
                for vertex in (event.u, event.v):
                    if vertex not in engine.universe:
                        # Deliberately not VertexNotFound (a KeyError,
                        # which the routes map to 404): a bad *batch*
                        # is a 400 against an existing resource.
                        raise InputMismatchError(
                            f"vertex {vertex!r} is not in this "
                            "session's universe"
                        )
                if event.t < clock:
                    raise InputMismatchError(
                        f"event at t={event.t} is behind the session "
                        f"clock (open step {clock})"
                    )
                clock = event.t
            if advance_to is not None and advance_to < clock:
                raise InputMismatchError(
                    f"advance_to={advance_to} is behind the session "
                    f"clock (step {clock})"
                )
            fresh: List[Any] = []
            try:
                for event in events:
                    fresh.extend(engine.ingest(event))
                if advance_to is not None:
                    fresh.extend(engine.advance_to(advance_to))
            except Exception as exc:
                session.failed = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    self.failures += 1
                raise
            session.events_seen += len(events)
            session.batches += 1
            new_alerts = [_alert_record(alert) for alert in fresh]
            step = engine.step
            phase_stats = engine.phase_stats()
            with session.feed_lock:
                session.alerts.extend(new_alerts)
                session.step = step
                session.phase_stats = phase_stats
                cursor = len(session.alerts)
            cells = session.cells
        with self._lock:
            self.events_total += len(events)
            self.alerts_total += len(new_alerts)
        self.registry.charge(session.owner, cells)
        return new_alerts, cursor, step

    def alerts_since(
        self, sid: str, cursor: int
    ) -> Tuple[List[Dict[str, Any]], int, int]:
        """Alert feed from *cursor*: ``(alerts, next_cursor, step)``.

        Cursors are feed indices: ``0`` replays everything, the
        returned ``next_cursor`` resumes after what was read.  A cursor
        beyond the feed is a client error (400), not an empty read —
        it can only come from a stale or corrupted cursor.
        """
        session = self.get(sid)
        with session.feed_lock:
            if cursor < 0 or cursor > len(session.alerts):
                raise InputMismatchError(
                    f"cursor {cursor} out of range "
                    f"[0, {len(session.alerts)}]"
                )
            session.last_used = time.monotonic()
            return (
                list(session.alerts[cursor:]),
                len(session.alerts),
                session.step,
            )

    def phase_stats(self, sid: str) -> Dict[str, Any]:
        """The engine's phase stats as of the last finished batch.

        The per-session observability block the alerts route serves:
        scheduling counters (full solves, cache hits, holds, probes,
        fallbacks), current dirty-region sizes, and the last answered
        step's :class:`~repro.stream.engine.StepProfile`.
        """
        session = self.get(sid)
        with session.feed_lock:
            return session.phase_stats

    def describe(self, sid: str) -> Dict[str, Any]:
        """The session's JSON summary plus its maintained top-k."""
        session = self.get(sid)
        with session.lock:
            record = session.describe()
            record["topk"] = [
                {
                    "rank": item.rank,
                    "score": item.objective,
                    "subset": sorted(str(v) for v in item.subset),
                }
                for item in session.engine.current_topk()
            ]
            return record

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        with self._lock:
            return len(self._sessions)

    def ids(self) -> List[str]:
        """Resident session ids, oldest first."""
        with self._lock:
            return list(self._sessions)

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` sessions section."""
        with self._lock:
            active = len(self._sessions)
            charged = sum(s.cells for s in self._sessions.values())
        return {
            "active": active,
            "limit": self.max_sessions,
            "created": self.created,
            "closed": self.closed,
            "expired": self.expired,
            "failed": self.failures,
            "events": self.events_total,
            "alerts": self.alerts_total,
            "charged_cells": charged,
        }


def _alert_record(alert: Any) -> Dict[str, Any]:
    """A StreamAlert as the JSON dict the feed stores and serves."""
    return {
        "step": alert.step,
        "score": alert.score,
        "size": len(alert.subset),
        "subset": sorted(str(v) for v in alert.subset),
        "measure": alert.measure,
        "source": alert.source,
    }
