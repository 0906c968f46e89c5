"""ServiceApp — routes, admission control and the warm query path.

One :class:`ServiceApp` is a resident query engine: it owns a
:class:`~repro.service.registry.GraphRegistry` (warm
``PreparedGraph`` LRU), a :class:`~repro.batch.cache.ResultCache`
(the same content-addressed cache the batch layer fills), one worker
thread behind a bounded admission count, and the metrics counters.
The HTTP layer (:mod:`repro.service.http`) is a thin shell around
:meth:`ServiceApp.handle`; every route is equally reachable in-process
via :meth:`dispatch` / :meth:`request`, which is how the tests and the
README quickstart exercise it without sockets.

Routes::

    GET  /healthz            liveness + queue depth
    GET  /metrics            counters, cache hit rate, p50/p95 latency
    GET  /v1/datasets        resolvable graph names (uploads + Table II)
    POST /v1/graphs          upload an edge-list pair -> named graph
    POST /v1/solve           one dcsad/dcsga (top-k via "k") query
    POST /v1/batch           a batch of typed queries (PR-3 vocabulary)
    POST /v1/stream/sessions open a live stream session

A session's own routes (``/v1/stream/sessions/{id}``, its ``events``
and its cursor-read ``alerts`` feed) are dispatched by prefix; event
logs reach the service only through sessions
(:mod:`repro.service.sessions`).

Answer semantics are the engine envelope's: a ``/v1/solve`` response's
``result`` field is exactly the :meth:`~repro.engine.envelope.
SolveResult.to_record` JSON that ``repro dcsad --json`` prints — same
keys, same canonical payload bytes — with only the out-of-band
``timings`` differing run to run.  Cached answers are reconstructed
from the canonical payload, so a hit is byte-identical to a fresh
solve.

Admission control: every blocking step of a request (registry
resolution, uploads, batch parsing, session creation and batches, the
solve) is one job on the app's one worker thread (solvers are
GIL-bound; ``repro serve --workers N`` scales out), so the event loop
and ``/healthz`` stay responsive.  Once ``max_pending`` jobs wait
behind the running one, the next request answers ``429`` (and ticks
``rejected``); the count is bound to no event loop.
:func:`~repro.batch.executor.run_guarded` runs the solve.  ``SIGALRM``
cannot fire in the worker thread, so a request's deadline, taken on
arrival, is enforced at the awaiting side: the client gets its ``504``
on time, an unstarted job is dropped, a started one runs on.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import ContextVar
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.batch.cache import ResultCache, cache_key
from repro.batch.executor import BatchExecutor, BatchResult, run_guarded
from repro.batch.queries import BatchQuery, assign_qids, query_from_dict
from repro.engine.envelope import SolveRequest, solve
from repro.engine.registry import resolve_backend
from repro.engine.prepared import PreparedGraph
from repro.exceptions import BackendUnavailableError, InputMismatchError
from repro.obs.logs import ACCESS_LOGGER, SLOW_LOGGER
from repro.obs.prometheus import render_exposition
from repro.obs.trace import new_trace_id, recording
from repro.service.http import HttpError, HttpRequest, HttpResponse
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.sessions import (
    SessionFailedError,
    SessionLimitError,
    SessionManager,
    events_from_records,
)

__all__ = [
    "ServiceApp",
    "ServiceDeadlineError",
    "ServiceOverloadedError",
]

#: Longest long-poll wait the alerts route grants (seconds); bounds
#: how long a connection may sit on the loop however large the client's
#: ``wait`` parameter is.
_MAX_LONG_POLL = 30.0

#: Sleep between long-poll feed checks.  Plain polling (rather than a
#: per-session condition) keeps the route loop-agnostic: sessions are
#: touched from many event loops (``request`` runs one per call) and
#: from the worker thread, where asyncio primitives would not travel.
_LONG_POLL_TICK = 0.02

#: Keys of a solve record that ride outside the canonical answer.
_OUT_OF_BAND = ("timings", "provenance")

#: The fields a session-create body may carry.
_SESSION_FIELDS = frozenset(
    [
        "universe", "graph", "window", "measure", "threshold", "warmup",
        "backend", "k", "tol_scale", "topk_strategy",
    ]
)

#: Extra seconds the awaiting side grants beyond the query budget
#: before answering 504 (covers queue hop and result marshalling).
_TIMEOUT_GRACE = 0.05

#: Seconds between event-loop scheduling-lag probes.
_LAG_PROBE_INTERVAL = 0.25

#: A client-supplied request id is honoured only in this shape; anything
#: else (header injection, unbounded length) is replaced with a fresh id.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: The request id of the request being handled on this context (empty
#: outside a request).  Lets the slow-query log correlate without
#: threading the id through every route signature.
_REQUEST_ID: ContextVar[str] = ContextVar("repro_request_id", default="")

_access_log = logging.getLogger(ACCESS_LOGGER)
_slow_log = logging.getLogger(SLOW_LOGGER)


class ServiceOverloadedError(RuntimeError):
    """Raised when the admission queue is full (maps to HTTP 429)."""


class ServiceDeadlineError(RuntimeError):
    """Raised when an admitted request exceeds its await-side deadline
    (maps to HTTP 504; the abandoned work may finish in the
    background)."""


def _deadline(timeout: Optional[float]) -> Optional[float]:
    """The monotonic instant *timeout* runs out; ``None`` when it is
    unbounded (absent or ``<= 0``, as ``run_guarded`` reads it)."""
    if timeout is None or timeout <= 0:
        return None
    return time.monotonic() + timeout


def _field_int(body: Dict[str, Any], name: str, default: int) -> int:
    """An integer field, accepting JSON generators' integral floats."""
    value = body.get(name, default)
    if isinstance(value, bool):
        raise InputMismatchError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise InputMismatchError(
                f"{name} must be an integer, got {value!r}"
            )
        return int(value)
    if not isinstance(value, int):
        raise InputMismatchError(f"{name} must be an integer, got {value!r}")
    return value


def _field_optional_int(
    body: Dict[str, Any], name: str
) -> Optional[int]:
    if body.get(name) is None:
        return None
    return _field_int(body, name, 0)


def _field_float(
    body: Dict[str, Any], name: str, default: float
) -> float:
    """A finite number field.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; neither is a usable
    threshold or budget (``score <= nan`` is never true), and ``NaN``
    would be echoed back as invalid JSON.
    """
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputMismatchError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InputMismatchError(f"{name} must be finite, got {value!r}")
    return float(value)


def _field_bool(body: Dict[str, Any], name: str) -> bool:
    """A strict boolean field — ``"false"`` must not mean ``True``."""
    value = body.get(name, False)
    if not isinstance(value, bool):
        raise InputMismatchError(f"{name} must be a boolean, got {value!r}")
    return value


class ServiceApp:
    """The resident DCS query engine behind ``repro serve``.

    Parameters
    ----------
    registry / cache:
        Share or inject state; fresh instances by default.  Pass a
        directory-backed :class:`~repro.batch.cache.ResultCache` to
        persist answers across restarts.
    max_pending:
        How many jobs may wait behind the running one (then 429).
    timeout:
        Default per-request solve budget in seconds (a request's own
        ``timeout`` field overrides it); ``None`` = unbounded.  On
        ``/v1/batch`` the budget is per query, so the request deadline
        is ``timeout x len(queries)``, and its queries run serially.
        The deadline runs from arrival, graph resolution included.
    warm_capacity / scale:
        Shape the default :class:`GraphRegistry` (ignored when a
        registry is injected).
    max_sessions / session_ttl / session_budget_cells:
        Stream-session admission: how many tenants may be resident
        (429 past the limit), after how many idle seconds a session
        expires (``None`` = never), and the registry's soft memory
        budget in cells that session charges count against
        (``session_budget_cells`` only shapes the default registry).
    access_log:
        Emit one structured JSON access record (INFO on
        ``repro.service.access``) per handled request.  Off by
        default — and INFO is below the root logger's threshold, so
        even when on, nothing prints until
        :func:`repro.obs.logs.configure_logging` (``repro serve
        --access-log``) attaches a handler.
    slow_query_seconds:
        When set, compute requests slower than this log a WARNING on
        ``repro.service.slow``.  ``None`` (the default) disables the
        check entirely so the default service stays silent (WARNING
        would otherwise reach logging's last-resort handler).
    worker_id / shm_store / on_export:
        Cluster wiring (``repro serve --workers N``).  *worker_id*
        tags metrics snapshots and access-log records and prefixes
        stream-session ids (``w3-1``) so the router can route by sid
        alone.  *shm_store* / *on_export* are forwarded to the default
        :class:`GraphRegistry` so cold builds export their CSR arrays
        into shared memory and announce the segment to siblings
        (ignored when a registry is injected).  All default to off —
        a plain single-process ``ServiceApp()`` is byte-identical to
        previous releases.
    """

    def __init__(
        self,
        registry: Optional[GraphRegistry] = None,
        cache: Optional[ResultCache] = None,
        *,
        max_pending: int = 32,
        timeout: Optional[float] = None,
        warm_capacity: int = 8,
        scale: float = 0.25,
        max_sessions: int = 32,
        session_ttl: Optional[float] = None,
        session_budget_cells: Optional[int] = None,
        access_log: bool = False,
        slow_query_seconds: Optional[float] = None,
        worker_id: Optional[int] = None,
        shm_store: Optional[Any] = None,
        on_export: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.worker_id = worker_id
        self.registry = (
            registry
            if registry is not None
            else GraphRegistry(
                capacity=warm_capacity,
                scale=scale,
                budget_cells=session_budget_cells,
                shm_store=shm_store,
                on_export=on_export,
            )
        )
        self.cache = cache if cache is not None else ResultCache()
        self.sessions = SessionManager(
            self.registry,
            max_sessions=max_sessions,
            ttl=session_ttl,
            sid_prefix="s" if worker_id is None else f"w{worker_id}",
        )
        self.metrics = ServiceMetrics()
        self.max_pending = max_pending
        self.timeout = timeout
        self.access_log = access_log
        self.slow_query_seconds = slow_query_seconds
        # Shared by every loop and thread; starts with the first job.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        #: jobs submitted to the pool and not yet started
        self._waiting = 0
        self._waiting_lock = threading.Lock()
        self._lag_probe: Optional["asyncio.Task[None]"] = None
        self._routes: Dict[
            Tuple[str, str],
            Callable[[HttpRequest], Awaitable[HttpResponse]],
        ] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/v1/datasets"): self._datasets,
            ("POST", "/v1/graphs"): self._upload,
            ("POST", "/v1/solve"): self._solve,
            ("POST", "/v1/batch"): self._batch,
            ("POST", "/v1/stream/sessions"): self._session_create,
            ("GET", "/v1/stream/sessions"): self._session_list,
        }
        self._known_paths = {path for _, path in self._routes}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Stop the loop-lag probe and release the worker thread
        (unstarted jobs are cancelled; the app takes no new ones)."""
        if self._lag_probe is not None:
            self._lag_probe.cancel()
            await asyncio.gather(self._lag_probe, return_exceptions=True)
            self._lag_probe = None
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def _probe_loop_lag(self) -> None:
        """Measure event-loop scheduling lag on a fixed cadence.

        Each probe asks to sleep :data:`_LAG_PROBE_INTERVAL` seconds;
        the overshoot is time the loop spent unable to schedule — the
        direct symptom of blocking work on the loop (the thing the
        worker thread exists to prevent).
        """
        while True:
            before = time.perf_counter()
            await asyncio.sleep(_LAG_PROBE_INTERVAL)
            lag = time.perf_counter() - before - _LAG_PROBE_INTERVAL
            self.metrics.observe_loop_lag(max(0.0, lag))

    @property
    def pending(self) -> int:
        """Jobs admitted but not yet started."""
        return self._waiting

    def _take_slot(self) -> bool:
        """Count one more waiting job; False once ``max_pending`` wait."""
        with self._waiting_lock:
            if self._waiting >= self.max_pending:
                return False
            self._waiting += 1
            return True

    def _free_slot(self) -> None:
        """Uncount a waiting job: it started, or was cancelled unstarted."""
        with self._waiting_lock:
            self._waiting -= 1

    def _free_slot_if_cancelled(self, future: "Future[Any]") -> None:
        if future.cancelled():
            self._free_slot()

    async def _submit(
        self, work: Callable[[], Any], deadline: Optional[float]
    ) -> Any:
        """Admit *work*; await its outcome until the monotonic
        *deadline* (``None`` = unbounded).

        Raises :class:`ServiceOverloadedError` when ``max_pending`` jobs
        already wait and :class:`ServiceDeadlineError` when *deadline*
        passes first.  A cancelled wait cancels a job not yet started,
        freeing its slot; a started job finishes in the background.
        """
        if not self._take_slot():
            self.metrics.observe_rejection()
            raise ServiceOverloadedError(
                f"admission queue full ({self.max_pending} pending); "
                "retry later"
            )

        def job() -> Any:
            self._free_slot()
            return work()

        future = self._pool.submit(job)
        future.add_done_callback(self._free_slot_if_cancelled)
        outcome = asyncio.wrap_future(future)
        if deadline is None:
            return await outcome
        try:
            return await asyncio.wait_for(
                outcome, deadline - time.monotonic() + _TIMEOUT_GRACE
            )
        except asyncio.TimeoutError:
            raise ServiceDeadlineError(
                "request exceeded its deadline"
            ) from None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request; every failure maps to a JSON error.

        Every response — success or error — echoes an ``X-Request-Id``
        header: the client's own (when well-formed) or a fresh id.  The
        id is held in a context variable for the duration of routing so
        the slow-query log can correlate without plumbing.
        """
        start = time.perf_counter()
        supplied = request.headers.get("x-request-id", "")
        request_id = (
            supplied if _REQUEST_ID_RE.match(supplied) else new_trace_id()
        )
        token = _REQUEST_ID.set(request_id)
        try:
            response = await self._route_guarded(request)
        finally:
            _REQUEST_ID.reset(token)
        response.headers["X-Request-Id"] = request_id
        # Unmatched paths share one metrics bucket so scanner traffic
        # cannot grow the route table (and /metrics) without bound;
        # per-session paths collapse onto their {id} template for the
        # same reason.
        route = self._route_label(request.path)
        self.metrics.observe_request(route, response.status)
        if self.access_log:
            extra = {
                "request_id": request_id,
                "method": request.method,
                "path": request.path,
                "route": route,
                "status": response.status,
                "seconds": round(time.perf_counter() - start, 6),
            }
            if self.worker_id is not None:
                extra["worker"] = self.worker_id
            _access_log.info("access", extra=extra)
        return response

    async def _route_guarded(self, request: HttpRequest) -> HttpResponse:
        """Routing with the failure -> status map applied."""
        try:
            return await self._route(request)
        except HttpError as exc:
            return HttpResponse(exc.status, {"error": exc.message})
        except (ServiceOverloadedError, SessionLimitError) as exc:
            return HttpResponse(
                429, {"error": str(exc)}, headers={"Retry-After": "1"}
            )
        except SessionFailedError as exc:
            return HttpResponse(409, {"error": str(exc)})
        except ServiceDeadlineError as exc:
            return HttpResponse(
                504, {"status": "timeout", "error": str(exc)}
            )
        except KeyError as exc:
            message = str(exc.args[0]) if exc.args else str(exc)
            return HttpResponse(404, {"error": message})
        except (
            InputMismatchError,
            BackendUnavailableError,  # a RuntimeError, still the client's ask
            ValueError,
            TypeError,
        ) as exc:
            return HttpResponse(
                400, {"error": f"{type(exc).__name__}: {exc}"}
            )
        except Exception as exc:  # noqa: BLE001 - service must answer
            return HttpResponse(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _route_label(self, path: str) -> str:
        """The metrics bucket of *path* (templated session ids)."""
        if path in self._known_paths:
            return path
        parts = self._session_parts(path)
        if parts is not None:
            _, tail = parts
            suffix = f"/{tail}" if tail else ""
            return f"/v1/stream/sessions/{{id}}{suffix}"
        return "(unmatched)"

    @staticmethod
    def _session_parts(path: str) -> Optional[Tuple[str, str]]:
        """Split a per-session path into ``(sid, tail)``.

        ``/v1/stream/sessions/s-1`` -> ``("s-1", "")``;
        ``/v1/stream/sessions/s-1/events`` -> ``("s-1", "events")``;
        anything else (including the collection path itself) -> None.
        """
        prefix = "/v1/stream/sessions/"
        if not path.startswith(prefix):
            return None
        rest = path[len(prefix) :]
        if not rest:
            return None
        pieces = rest.split("/")
        if len(pieces) == 1:
            return pieces[0], ""
        if len(pieces) == 2 and pieces[1] in ("events", "alerts"):
            return pieces[0], pieces[1]
        return None

    async def _route(self, request: HttpRequest) -> HttpResponse:
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return await handler(request)
        parts = self._session_parts(request.path)
        if parts is not None:
            sid, tail = parts
            if tail == "":
                if request.method == "GET":
                    return await self._session_info(request, sid)
                if request.method == "DELETE":
                    return await self._session_close(request, sid)
            elif tail == "events" and request.method == "POST":
                return await self._session_events(request, sid)
            elif tail == "alerts" and request.method == "GET":
                return await self._session_alerts(request, sid)
            raise HttpError(405, f"{request.method} not allowed here")
        if request.path in self._known_paths:
            raise HttpError(405, f"{request.method} not allowed here")
        raise HttpError(404, f"no route {request.method} {request.path}")

    async def dispatch(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> HttpResponse:
        """In-process request — what the HTTP shell would deliver.

        *path* may carry a query string (``.../alerts?cursor=3``),
        parsed exactly as the socket shell parses it; *headers* are
        lower-cased the way :func:`~repro.service.http.read_request`
        normalises them.
        """
        raw = b"" if body is None else json.dumps(body).encode("utf-8")
        parts = urlsplit(path)
        return await self.handle(
            HttpRequest(
                method=method.upper(),
                path=parts.path,
                query=dict(parse_qsl(parts.query)),
                headers={
                    name.lower(): value
                    for name, value in (headers or {}).items()
                },
                body=raw,
            )
        )

    def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any]:
        """Synchronous :meth:`dispatch` (scripts, doctests, tests).

        Returns ``(status, payload)``.  Each call runs on a private
        event loop via :func:`asyncio.run`.  Admission is bound to no
        loop, so calls from several threads at once are safe: their
        jobs share the one worker thread and the ``max_pending`` bound.
        """
        response = asyncio.run(self.dispatch(method, path, body))
        return response.status, response.payload

    # ------------------------------------------------------------------
    # introspection routes
    # ------------------------------------------------------------------
    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            200,
            {
                "status": "ok",
                "uptime_seconds": round(self.metrics.uptime_seconds, 3),
                "pending": self.pending,
                "warm_prepared": self.registry.warm_count,
                "sessions": self.sessions.active,
            },
        )

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        snapshot = self.metrics.snapshot(
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            warm_prepared=self.registry.warm_count,
            warm_capacity=self.registry.capacity,
            warm_hits=self.registry.warm_hits,
            warm_evictions=self.registry.evictions,
            pending=self.pending,
            sessions=self.sessions.snapshot(),
            cold_builds=self.registry.cold_builds,
            shared_attaches=self.registry.shared_attaches,
            worker=self.worker_id,
        )
        # Content negotiation: ?format=prometheus or an Accept header
        # asking for text/plain gets the text exposition; everything
        # else keeps the historical JSON bytes.  Both forms are derived
        # from the same snapshot dict.
        wants_text = request.query.get(
            "format"
        ) == "prometheus" or "text/plain" in request.headers.get(
            "accept", ""
        )
        if wants_text:
            return HttpResponse(
                200,
                render_exposition(snapshot),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        return HttpResponse(200, snapshot)

    async def _datasets(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            200,
            {
                "graphs": self.registry.names(),
                "warm": self.registry.warm_names(),
            },
        )

    # ------------------------------------------------------------------
    # graph uploads
    # ------------------------------------------------------------------
    async def _upload(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "upload body must be a JSON object")
        for field in ("name", "g1", "g2"):
            if not isinstance(body.get(field), str):
                raise HttpError(
                    400, f"upload needs a string {field!r} field"
                )
        cap = body.get("cap")
        alpha = _field_float(body, "alpha", 1.0)
        flip = _field_bool(body, "flip")
        discrete = _field_bool(body, "discrete")
        cap_value = None if cap is None else _field_float(body, "cap", 0.0)

        def register() -> PreparedGraph:
            return self.registry.register_pair(
                body["name"],
                body["g1"],
                body["g2"],
                alpha=alpha,
                flip=flip,
                discrete=discrete,
                cap=cap_value,
            )

        prepared = await self._submit(register, None)
        return HttpResponse(
            200,
            {
                "name": body["name"],
                "fingerprint": prepared.fingerprint,
                "vertices": prepared.gd.num_vertices,
                "edges": prepared.gd.num_edges,
                "warm_prepared": self.registry.warm_count,
            },
        )

    # ------------------------------------------------------------------
    # compute routes
    # ------------------------------------------------------------------
    def _effective_timeout(self, body: Dict[str, Any]) -> Optional[float]:
        if body.get("timeout") is None:
            return self.timeout
        return _field_float(body, "timeout", 0.0)

    async def _solve(self, request: HttpRequest) -> HttpResponse:
        """One query: content-addressed cache lookup, guarded execution
        under the admission queue, cache fill, and the ok / 422 / 504
        map.

        The cache stores the canonical record (out-of-band keys
        stripped); a hit answers it with empty timings and this
        request's provenance.  ``seconds`` counts from the request's
        arrival, so a hit or a miss queued behind other jobs reports
        that wait too.
        """
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "solve body must be a JSON object")
        ref = body.get("graph")
        if not isinstance(ref, str):
            raise HttpError(400, "solve needs a string 'graph' reference")
        kind = str(body.get("kind", "dcsad"))
        # Fail bad requests at admission time, not inside a worker —
        # unknown backend names (UnknownBackendError, a ValueError) and
        # registered-but-unavailable backends (BackendUnavailableError)
        # both map to 400.  The *canonical* backend name goes into the
        # params: aliases ("heap" for "python") must share one cache
        # entry, and a cached hit must replay the same bytes a fresh
        # solve of either spelling would produce.
        backend_name = resolve_backend(
            str(body.get("backend", "python"))
        ).name
        params: Dict[str, Any] = {
            "kind": kind,
            "backend": backend_name,
            "k": _field_int(body, "k", 1),
            "tol_scale": _field_float(body, "tol_scale", 1e-2),
        }
        if kind == "dcsad":
            params["strategy"] = str(body.get("strategy", "vertices"))
            if params["strategy"] not in ("vertices", "edges"):
                raise HttpError(
                    400, f"unknown removal strategy {params['strategy']!r}"
                )
        solve_request = SolveRequest.from_params(kind, params)
        timeout = self._effective_timeout(body)
        deadline = _deadline(timeout)
        arrived = time.perf_counter()
        try:
            prepared = await self._submit(
                lambda: self.registry.resolve(ref), deadline
            )
        except ServiceDeadlineError:
            self.metrics.observe_query(
                "timeout", time.perf_counter() - arrived
            )
            raise
        fingerprint = prepared.fingerprint
        key = cache_key(fingerprint, params)
        hit = self.cache.get(key)
        if hit is not None:
            seconds = time.perf_counter() - arrived
            self.metrics.observe_query("ok", seconds)
            record = dict(hit["payload"])
            record["timings"] = {}
            record["provenance"] = {
                "backend": backend_name,
                "fingerprint": fingerprint,
            }
            return HttpResponse(
                200,
                {
                    "status": "ok",
                    "cached": True,
                    "fingerprint": fingerprint,
                    "seconds": round(seconds, 6),
                    "result": record,
                },
            )

        def solve_work() -> Dict[str, Any]:
            # Recording here — inside the worker thread — gives each
            # solve its own span tree; the derived breakdown rides back
            # in timings["phases"] and feeds the /metrics phase gauges.
            # The canonical answer bytes are unaffected (phases are
            # out-of-band, like solve_seconds).
            with recording():
                return solve(solve_request, prepared).to_record()

        try:
            status, value, _ = await self._submit(
                lambda: run_guarded(solve_work, timeout), deadline
            )
        except ServiceDeadlineError as exc:
            status, value = "timeout", str(exc)
        elapsed = time.perf_counter() - arrived
        self.metrics.observe_query(status, elapsed)
        if (
            self.slow_query_seconds is not None
            and elapsed >= self.slow_query_seconds
        ):
            _slow_log.warning(
                "slow_query",
                extra={
                    "request_id": _REQUEST_ID.get(),
                    "fingerprint": fingerprint,
                    "status": status,
                    "seconds": round(elapsed, 6),
                },
            )
        if status == "ok":
            timings = value.get("timings")
            phases = (
                timings.get("phases") if isinstance(timings, dict) else None
            )
            if isinstance(phases, dict) and phases:
                self.metrics.observe_phases(phases)
            canonical = {
                k: v for k, v in value.items() if k not in _OUT_OF_BAND
            }
            self.cache.put(
                key, {"status": "ok", "payload": canonical, "error": None}
            )
            return HttpResponse(
                200,
                {
                    "status": "ok",
                    "cached": False,
                    "fingerprint": fingerprint,
                    "seconds": round(elapsed, 6),
                    "result": value,
                },
            )
        return HttpResponse(
            504 if status == "timeout" else 422,
            {
                "status": status,
                "fingerprint": fingerprint,
                "error": value,
            },
        )

    async def _batch(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        records = body.get("queries") if isinstance(body, dict) else body
        if not isinstance(records, list) or not records:
            raise HttpError(
                400,
                "batch body must be a non-empty JSON array of query "
                "objects (or {'queries': [...]})",
            )

        # Network clients may only name *server-published* inputs:
        # registered graphs and (bounded) dataset references.  The
        # file-path vocabulary of `repro batch` (g1/g2/events) would
        # let a remote client make the server read arbitrary local
        # files; event streams go to a stream session instead.
        for record in records:
            if not isinstance(record, dict):
                raise HttpError(
                    400, f"query record must be an object: {record!r}"
                )
            banned = {"g1", "g2", "events"} & set(record)
            if banned:
                raise HttpError(
                    400,
                    f"field(s) {sorted(banned)} name server-side files; "
                    "the HTTP batch route accepts 'graph' and 'dataset' "
                    "sources only (stream events go to a session: "
                    "POST /v1/stream/sessions)",
                )
            if "scale" in record:
                scale = _field_float(record, "scale", 1.0)
                if scale > max(1.0, self.registry.scale):
                    raise HttpError(
                        400,
                        f"dataset scale {scale} exceeds this server's "
                        f"limit of {max(1.0, self.registry.scale)}",
                    )

        def parse() -> List[BatchQuery]:
            def resolve_graph(ref: str) -> Any:
                # The warm PreparedGraph itself is handed to the
                # executor: the plan adopts its fingerprint (no
                # re-derivation), and the one-worker executor solves on
                # it in-process — shared-memory views included, never
                # pickled.
                return self.registry.resolve(ref)

            return assign_qids(
                query_from_dict(record, graph_resolver=resolve_graph)
                for record in records
            )

        timeout = (
            self._effective_timeout(body)
            if isinstance(body, dict)
            else self.timeout
        )
        # The budget is per query (matching `repro batch --timeout`),
        # and SIGALRM cannot fire in the worker, so the enforceable
        # request deadline is the whole batch's worth of budgets.
        budget = None if timeout is None else timeout * len(records)
        deadline = _deadline(budget)
        arrived = time.perf_counter()
        executor = BatchExecutor(cache=self.cache, timeout=timeout)
        try:
            queries: List[BatchQuery] = await self._submit(parse, deadline)
            results: List[BatchResult] = await self._submit(
                lambda: executor.run(queries), deadline
            )
        except ServiceDeadlineError:
            self.metrics.observe_query(
                "timeout", time.perf_counter() - arrived
            )
            raise
        for result in results:
            self.metrics.observe_query(result.status, result.seconds)
        stats = executor.stats
        return HttpResponse(
            200,
            {
                "status": "ok"
                if all(r.status == "ok" for r in results)
                else "partial",
                "results": [json.loads(r.to_json()) for r in results],
                "stats": {
                    "queries": stats.queries,
                    "mode": stats.mode,
                    "preps_built": stats.preps_built,
                    "preps_shared": stats.preps_shared,
                    "cache_hits": stats.cache_hits,
                    "solved": stats.solved,
                    "errors": stats.errors,
                    "timeouts": stats.timeouts,
                },
            },
        )

    # ------------------------------------------------------------------
    # stream sessions
    # ------------------------------------------------------------------
    async def _session_create(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "session body must be a JSON object")
        unknown = set(body) - _SESSION_FIELDS
        if unknown:
            raise HttpError(
                400, f"unknown session field(s) {sorted(unknown)}"
            )
        universe = body.get("universe")
        graph = body.get("graph")
        if universe is not None and (
            not isinstance(universe, list)
            or not universe
            or not all(isinstance(v, str) for v in universe)
        ):
            raise HttpError(
                400, "'universe' must be a non-empty array of vertex names"
            )
        if graph is not None and not isinstance(graph, str):
            raise HttpError(400, "'graph' must be a registered name")
        kwargs: Dict[str, Any] = {
            "window": _field_int(body, "window", 5),
            "measure": str(body.get("measure", "average_degree")),
            "min_score": _field_float(body, "threshold", 0.0),
            "backend": str(body.get("backend", "python")),
            "k": _field_int(body, "k", 1),
            "tol_scale": _field_float(body, "tol_scale", 1e-2),
        }
        warmup = _field_optional_int(body, "warmup")
        if warmup is not None:
            kwargs["warmup"] = warmup
        if body.get("topk_strategy") is not None:
            kwargs["topk_strategy"] = str(body["topk_strategy"])
        self.sessions.expire_idle()

        def create() -> Any:
            # Resolving a graph reference may build cold — worker work.
            return self.sessions.create(
                universe=universe, graph=graph, **kwargs
            )

        session = await self._submit(create, None)
        return HttpResponse(
            200,
            {
                "session": session.sid,
                "config": dict(session.config),
                "sessions": self.sessions.active,
            },
        )

    async def _session_list(self, request: HttpRequest) -> HttpResponse:
        self.sessions.expire_idle()
        return HttpResponse(
            200,
            {
                "sessions": self.sessions.ids(),
                "stats": self.sessions.snapshot(),
            },
        )

    async def _session_info(
        self, request: HttpRequest, sid: str
    ) -> HttpResponse:
        return HttpResponse(200, self.sessions.describe(sid))

    async def _session_close(
        self, request: HttpRequest, sid: str
    ) -> HttpResponse:
        summary = self.sessions.close(sid)
        if summary is None:
            raise HttpError(404, f"no session {sid!r}")
        return HttpResponse(200, {"closed": sid, "final": summary})

    async def _session_events(
        self, request: HttpRequest, sid: str
    ) -> HttpResponse:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "events body must be a JSON object")
        events = events_from_records(body.get("events"))
        advance_to = _field_optional_int(body, "advance_to")
        # Existence and health are checked inline so a bad sid answers
        # 404 (and a failed session 409) without burning a queue slot.
        self.sessions.get(sid)
        deadline = _deadline(self._effective_timeout(body))
        start = time.perf_counter()

        def work() -> Tuple[List[Dict[str, Any]], int, int]:
            return self.sessions.apply_events(
                sid, events, advance_to=advance_to
            )

        try:
            alerts, cursor, step = await self._submit(work, deadline)
        except ServiceDeadlineError:
            self.metrics.observe_query(
                "timeout", time.perf_counter() - start
            )
            raise
        except (
            ServiceOverloadedError,
            SessionFailedError,
            InputMismatchError,
            KeyError,
        ):
            raise  # admission / client errors; not solver outcomes
        except Exception as exc:  # noqa: BLE001 - solver fault boundary
            self.metrics.observe_query("error", time.perf_counter() - start)
            return HttpResponse(
                422,
                {
                    "status": "error",
                    "session": sid,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
        self.metrics.observe_query("ok", time.perf_counter() - start)
        return HttpResponse(
            200,
            {
                "status": "ok",
                "session": sid,
                "step": step,
                "alerts": alerts,
                "cursor": cursor,
            },
        )

    async def _session_alerts(
        self, request: HttpRequest, sid: str
    ) -> HttpResponse:
        try:
            cursor = int(request.query.get("cursor", "0"))
            wait = float(request.query.get("wait", "0"))
        except ValueError as exc:
            raise HttpError(400, f"bad query parameter: {exc}") from None
        if not math.isfinite(wait):
            # A NaN deadline is never reached: the poll would outlive
            # the _MAX_LONG_POLL cap.
            raise HttpError(400, f"bad query parameter: wait={wait}")
        deadline = time.monotonic() + min(max(wait, 0.0), _MAX_LONG_POLL)
        while True:
            alerts, next_cursor, step = self.sessions.alerts_since(
                sid, cursor
            )
            if alerts or time.monotonic() >= deadline:
                return HttpResponse(
                    200,
                    {
                        "session": sid,
                        "alerts": alerts,
                        "cursor": next_cursor,
                        "step": step,
                        "stats": self.sessions.phase_stats(sid),
                    },
                )
            await asyncio.sleep(_LONG_POLL_TICK)

    # ------------------------------------------------------------------
    # the network face
    # ------------------------------------------------------------------
    async def start_server(
        self, host: str = "127.0.0.1", port: int = 8765
    ) -> asyncio.AbstractServer:
        """Bind the HTTP shell; ``port=0`` picks an ephemeral port.

        Also starts the loop-lag probe on the serving loop;
        :meth:`aclose` stops it.
        """
        from repro.service.http import serve_http

        self._lag_probe = asyncio.get_running_loop().create_task(
            self._probe_loop_lag()
        )
        return await serve_http(self.handle, host, port)
