"""Multi-worker scale-out: a router process in front of solver workers.

``repro serve --workers N`` (N >= 2) runs this topology::

            clients
               │ HTTP
        ┌──────▼──────┐   announce/stop      ┌────────────────┐
        │   router    │◄────────────────────►│ worker 0 (app) │
        │ (this file) │   mp.Pipe control    ├────────────────┤
        │  /healthz   │◄────────────────────►│ worker 1 (app) │
        │  /metrics   │        ...           ├────────────────┤
        └──────┬──────┘                      │ worker N-1     │
               │ HTTP forward                └───────┬────────┘
               └─── owner by sha256(ref) ────────────┘
                                             /dev/shm rp<pid>_* segments

Each worker is a full :class:`~repro.service.app.ServiceApp` — the same
routes, the same envelopes — listening on its own ephemeral loopback
port, with the engine backends warmed once at spawn.  The router is a
thin asyncio process that **owns no solver state**: it parses just
enough of each request to pick the owning worker and relays bytes
verbatim (:func:`repro.service.http.send_request`), so a client cannot
tell a cluster from a single process by its response bodies.

Routing rules
-------------
* graph traffic (``/v1/solve``, ``/v1/graphs``, ``/v1/batch``) is
  sharded by the **graph reference**: ``sha256(ref) % N`` names the
  owner, so each graph is uploaded, prepared and solved on one worker
  (the prepare-exactly-once contract) and every other worker can still
  serve it by attaching the owner's shared-memory segment;
* a ``/v1/batch`` naming several graphs goes whole to the first ref's
  owner when every other ref is *announced* (the non-owner serves them
  by shared-memory attach — no rebuild); records whose refs the
  primary could not resolve (shm unavailable, or a dataset ref nobody
  has built) are split out to their owning workers and the
  sub-responses merged back into the single-process envelope shape,
  so a registered graph never 404s and no graph is prepared twice;
* stream sessions are created on the graph owner when the session
  names a graph, round-robin otherwise; the worker id is burned into
  the session id (``w2-1``), so per-session traffic routes by sid
  alone;
* ``/v1/datasets``, session listing and ``/metrics`` fan out to every
  worker and merge; ``/healthz`` answers from the router itself with
  per-worker liveness.

Shared-memory lifecycle
-----------------------
Workers share one segment namespace (``rp<router-pid>_*``).  A cold
build exports its CSR arrays and sends ``("export", ...)`` up the
control pipe; the router records it in the announce log and broadcasts
``("announce", ...)`` to the other workers, whose registries then
resolve that name by attaching instead of rebuilding.  The announce
log is replayed to every respawned worker.  On shutdown the router
stops the workers (each closes its attachments, the last one unlinks)
and then **sweeps** the namespace — unlinking anything still present —
so no ``/dev/shm`` segment survives the router, even after SIGKILLed
workers.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import multiprocessing
import os
import re
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.batch.queries import fill_qids
from repro.exceptions import InputMismatchError
from repro.service.http import (
    HttpRequest,
    HttpResponse,
    send_request,
    serve_http,
)

__all__ = ["ClusterRouter", "run_cluster"]

#: seconds a worker gets to import, warm its backends and bind
_READY_TIMEOUT = 120.0
#: seconds a request handler waits for the supervisor to respawn the
#: worker it just failed to reach before answering 502
_RESPAWN_WAIT = 60.0
#: supervisor liveness poll cadence
_SUPERVISE_TICK = 0.2
#: per-forward network timeout (covers connect + response; solve
#: deadlines are enforced by the worker itself, so this only catches a
#: hung worker) — ``None`` leaves it to the worker
_FORWARD_TIMEOUT: Optional[float] = None

_SID_RE = re.compile(r"^w(\d+)-")


def _shard(ref: str, n: int) -> int:
    """The owning worker of a graph reference — stable across runs."""
    digest = hashlib.sha256(ref.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % n


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
async def _worker_serve(
    app: Any, conn: Any, host: str
) -> None:
    """One worker's life: bind, report ready, serve until told to stop."""
    server = await app.start_server(host=host, port=0)
    port = server.sockets[0].getsockname()[1]
    conn.send(("ready", {"port": port, "pid": os.getpid()}))
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def on_control() -> None:
        try:
            while conn.poll():
                kind, payload = conn.recv()
                if kind == "announce":
                    app.registry.register_shared(
                        payload["ref"],
                        payload["fingerprint"],
                        payload["segment"],
                    )
                elif kind == "stop":
                    stop.set()
        except (EOFError, OSError):
            # The router died or closed the pipe: no supervisor means
            # no sweep, so exit cleanly and release our attachments.
            stop.set()

    loop.add_reader(conn.fileno(), on_control)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        server.close()
        await server.wait_closed()
        await app.aclose()


def _worker_main(
    worker_id: int,
    conn: Any,
    host: str,
    shm_prefix: str,
    options: Dict[str, Any],
) -> None:
    """Entry point of one spawned worker process.

    Top-level (picklable) for the ``spawn`` start method.  SIGINT is
    ignored — a terminal Ctrl-C reaches the whole process group, and
    shutdown must stay coordinated by the router's ``stop`` message.
    """
    # repro: allow[REPRO-SIGNAL-RESTORE] -- process-lifetime install; shutdown is router-coordinated
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.engine.registry import warm_backends
    from repro.service.app import ServiceApp

    log_level = options.pop("log_level", None)
    if log_level is not None or options.get("access_log"):
        # Logging config does not survive the spawn — rebuild it here
        # so per-worker access records (tagged with the worker id)
        # actually reach the router's stderr.
        from repro.obs.logs import configure_logging

        configure_logging(level=log_level or "info")

    try:
        from repro.engine.shm import SharedGraphStore, shm_available

        store: Optional[Any] = (
            SharedGraphStore(prefix=shm_prefix) if shm_available() else None
        )
    except Exception:  # pragma: no cover - shm is an optimisation
        store = None

    send_lock = threading.Lock()

    def on_export(ref: str, fingerprint: str, segment: str) -> None:
        # Fired from the worker thread mid-build; the pipe is one shared
        # channel, so sends are serialised.
        with send_lock:
            try:
                conn.send(
                    (
                        "export",
                        {
                            "ref": ref,
                            "fingerprint": fingerprint,
                            "segment": segment,
                        },
                    )
                )
            except (OSError, ValueError):  # pragma: no cover - races
                pass

    app = ServiceApp(
        worker_id=worker_id,
        shm_store=store,
        on_export=on_export if store is not None else None,
        **options,
    )
    warm_backends()
    try:
        asyncio.run(_worker_serve(app, conn, host))
    finally:
        if store is not None:
            store.close_all()
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown
            pass


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
class _WorkerHandle:
    """The router's view of one worker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.proc: Optional[Any] = None
        self.conn: Optional[Any] = None
        self.port = 0
        self.pid = 0
        self.restarts = 0
        #: bumped on every (re)spawn — request retries key off it
        self.generation = 0
        self.ready = asyncio.Event()

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class ClusterRouter:
    """Spawns, supervises and routes to ``workers`` solver processes."""

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        app_options: Optional[Dict[str, Any]] = None,
        shm_prefix: Optional[str] = None,
    ) -> None:
        if workers < 2:
            raise ValueError("a cluster needs at least 2 workers")
        self.host = host
        self.app_options = dict(app_options or {})
        self.shm_prefix = shm_prefix or f"rp{os.getpid()}"
        self.started = time.monotonic()
        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [_WorkerHandle(i) for i in range(workers)]
        self._rr = itertools.count()
        #: announce log: ref -> {"ref", "fingerprint", "segment"};
        #: replayed to respawned workers, swept at shutdown
        self._announced: Dict[str, Dict[str, str]] = {}
        self._supervisor: Optional["asyncio.Task[None]"] = None
        self._stopping = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker and wait until all report ready."""
        await asyncio.gather(
            *(self._spawn(handle) for handle in self._workers)
        )
        loop = asyncio.get_running_loop()
        self._supervisor = loop.create_task(self._supervise())

    async def _spawn(self, handle: _WorkerHandle) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                child,
                self.host,
                self.shm_prefix,
                self.app_options,
            ),
            daemon=True,
            name=f"repro-worker-{handle.worker_id}",
        )
        proc.start()
        child.close()
        handle.proc = proc
        handle.conn = parent
        handle.ready.clear()
        deadline = time.monotonic() + _READY_TIMEOUT
        while not parent.poll():
            if time.monotonic() > deadline or not proc.is_alive():
                raise RuntimeError(
                    f"worker {handle.worker_id} failed to start"
                )
            await asyncio.sleep(0.05)
        # repro: allow[REPRO-ASYNC-BLOCK] -- poll() loop above guarantees a buffered message; recv() returns immediately
        kind, payload = parent.recv()
        if kind != "ready":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"worker {handle.worker_id} sent {kind!r} before ready"
            )
        handle.port = payload["port"]
        handle.pid = payload["pid"]
        handle.generation += 1
        # Replay the announce log so a respawned worker can re-attach
        # every segment its predecessor (or any sibling) exported.
        for record in self._announced.values():
            parent.send(("announce", record))
        loop = asyncio.get_running_loop()
        loop.add_reader(
            parent.fileno(), self._on_worker_message, handle
        )
        handle.ready.set()

    def _on_worker_message(self, handle: _WorkerHandle) -> None:
        conn = handle.conn
        if conn is None:
            return
        try:
            while conn.poll():
                kind, payload = conn.recv()
                if kind == "export":
                    self._announced[payload["ref"]] = payload
                    self._broadcast(payload, exclude=handle.worker_id)
        except (EOFError, OSError):
            # Worker died; the supervisor respawns it.  Stop reading a
            # dead pipe so the loop does not spin on EOF.
            loop = asyncio.get_event_loop()
            try:
                loop.remove_reader(conn.fileno())
            except (OSError, ValueError):  # pragma: no cover
                pass

    def _broadcast(
        self, record: Dict[str, str], exclude: Optional[int] = None
    ) -> None:
        for handle in self._workers:
            if handle.worker_id == exclude or handle.conn is None:
                continue
            if not handle.ready.is_set():
                continue  # a respawn replays the full log anyway
            try:
                handle.conn.send(("announce", record))
            except (OSError, ValueError):  # pragma: no cover - races
                pass

    async def _supervise(self) -> None:
        """Respawn crashed workers; their segments re-attach via the
        replayed announce log."""
        while not self._stopping:
            await asyncio.sleep(_SUPERVISE_TICK)
            for handle in self._workers:
                if self._stopping or handle.alive:
                    continue
                handle.ready.clear()
                handle.restarts += 1
                self._detach(handle)
                try:
                    await self._spawn(handle)
                except RuntimeError:  # pragma: no cover - spawn storm
                    # Leave it dead for this tick; retried next sweep.
                    pass

    def _detach(self, handle: _WorkerHandle) -> None:
        loop = asyncio.get_event_loop()
        if handle.conn is not None:
            try:
                loop.remove_reader(handle.conn.fileno())
            except (OSError, ValueError):
                pass
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.proc is not None:
            handle.proc.join(timeout=0)

    async def shutdown(self) -> None:
        """Stop workers, join them, and sweep the segment namespace."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop", None))
                except (OSError, ValueError):
                    pass
        loop = asyncio.get_running_loop()
        for handle in self._workers:
            if handle.proc is not None:
                await loop.run_in_executor(
                    None, handle.proc.join, 10.0
                )
                if handle.proc.is_alive():  # pragma: no cover - hang
                    handle.proc.terminate()
                    await loop.run_in_executor(
                        None, handle.proc.join, 5.0
                    )
            self._detach(handle)
        self._sweep_segments()

    def _sweep_segments(self) -> None:
        """Unlink every segment of this cluster still in ``/dev/shm``.

        Workers that exited cleanly already drained their refcounts
        (the last holder unlinks); this is the backstop for SIGKILLed
        workers, whose counts never drain.
        """
        try:
            from repro.engine.shm import list_segments, unlink_segment
        except Exception:  # pragma: no cover - shm gated out
            return
        names = set(list_segments(self.shm_prefix))
        names.update(
            record["segment"] for record in self._announced.values()
        )
        for name in names:
            unlink_segment(name)

    # -- routing -------------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        method, path = request.method, request.path
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return await self._metrics(request)
        if method == "GET" and path == "/v1/datasets":
            return await self._datasets(request)
        if method == "GET" and path == "/v1/stream/sessions":
            return await self._session_list(request)
        if method == "POST" and path == "/v1/batch":
            return await self._batch(request)
        return await self._forward(self._pick_worker(request), request)

    def _pick_worker(self, request: HttpRequest) -> _WorkerHandle:
        n = len(self._workers)
        path = request.path
        if path.startswith("/v1/stream/sessions/"):
            sid = path[len("/v1/stream/sessions/") :].split("/", 1)[0]
            match = _SID_RE.match(sid)
            if match is not None and int(match.group(1)) < n:
                return self._workers[int(match.group(1))]
            # Unknown prefix: any worker produces the proper 404.
            return self._workers[0]
        ref = self._graph_ref(request)
        if ref is not None:
            return self._workers[_shard(ref, n)]
        if path == "/v1/stream/sessions":
            # No graph affinity: spread the load.
            return self._workers[next(self._rr) % n]
        # Everything else (including unknown paths and malformed
        # bodies): worker 0 renders the same envelope a single-process
        # server would.
        return self._workers[0]

    def _graph_ref(self, request: HttpRequest) -> Optional[str]:
        """The graph reference this request should shard on, if any."""
        if request.method != "POST" or not request.body:
            return None
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        path = request.path
        if path == "/v1/solve" and isinstance(body, dict):
            ref = body.get("graph")
            return ref if isinstance(ref, str) else None
        if path == "/v1/graphs" and isinstance(body, dict):
            ref = body.get("name")
            return ref if isinstance(ref, str) else None
        if path == "/v1/stream/sessions" and isinstance(body, dict):
            ref = body.get("graph")
            return ref if isinstance(ref, str) else None
        if path == "/v1/batch":
            records = (
                body.get("queries") if isinstance(body, dict) else body
            )
            if isinstance(records, list):
                for record in records:
                    if not isinstance(record, dict):
                        continue
                    for field in ("graph", "dataset"):
                        ref = record.get(field)
                        if isinstance(ref, str):
                            return ref
        return None

    async def _forward(
        self, handle: _WorkerHandle, request: HttpRequest
    ) -> HttpResponse:
        """Relay to *handle*, retrying once across a respawn."""
        for attempt in (0, 1):
            try:
                await asyncio.wait_for(
                    handle.ready.wait(), _RESPAWN_WAIT
                )
                return await send_request(
                    self.host, handle.port, request, _FORWARD_TIMEOUT
                )
            except asyncio.TimeoutError:
                return HttpResponse(
                    504,
                    {
                        "error": f"worker {handle.worker_id} timed out",
                        "status": "timeout",
                    },
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                if attempt:
                    break
                await self._await_respawn(handle)
        return HttpResponse(
            502,
            {"error": f"worker {handle.worker_id} unavailable"},
        )

    async def _await_respawn(self, handle: _WorkerHandle) -> None:
        """Wait for the supervisor to bring *handle* back (or decide
        the failure was transient because the worker never died)."""
        generation = handle.generation
        deadline = time.monotonic() + _RESPAWN_WAIT
        grace = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if handle.generation > generation and handle.ready.is_set():
                return
            if (
                time.monotonic() > grace
                and handle.alive
                and handle.ready.is_set()
            ):
                return  # transient: the worker is (still) live
            await asyncio.sleep(0.05)

    # -- batch scatter -------------------------------------------------
    async def _batch(self, request: HttpRequest) -> HttpResponse:
        """Route ``/v1/batch`` without stranding records off-owner.

        The common case forwards the batch verbatim to the first ref's
        owner: refs the owner does not shard are *announced*, so it
        serves them by shared-memory attach — no rebuild, and the
        response is the owner's bytes.  Records whose refs the primary
        worker could not resolve (shared memory unavailable, or a
        never-built dataset ref owned elsewhere) are split out to their
        owning workers — preserving prepare-once — and the
        sub-responses merged back into the exact single-process
        envelope shape (positional qids assigned the way
        ``assign_qids`` would, results in submission order, stats
        summed).  Batches the router cannot confidently split
        (malformed records, missing refs, duplicate qids) forward
        whole, so the worker renders the same error envelope a single
        process would.
        """
        plan = self._split_batch(request)
        if plan is None:
            return await self._forward(
                self._pick_worker(request), request
            )
        records, wrapper, targets, qids = plan
        groups: Dict[int, List[int]] = {}
        for index, target in enumerate(targets):
            groups.setdefault(target, []).append(index)

        def sub_request(indices: List[int]) -> HttpRequest:
            subrecords = [
                dict(records[i], qid=qids[i]) for i in indices
            ]
            payload: Any = (
                dict(wrapper, queries=subrecords)
                if wrapper is not None
                else subrecords
            )
            return HttpRequest(
                method="POST",
                path="/v1/batch",
                headers=dict(request.headers),
                body=json.dumps(payload).encode("utf-8"),
            )

        order = sorted(groups)
        responses = await asyncio.gather(
            *(
                self._forward(
                    self._workers[target], sub_request(groups[target])
                )
                for target in order
            )
        )
        # A failed sub-batch fails the whole request, as one process
        # would fail it; prefer the failure of the sub-batch holding
        # the earliest record so messages track submission order.
        failed = [
            (min(groups[target]), response)
            for target, response in zip(order, responses)
            if response.status != 200
        ]
        if failed:
            return min(failed, key=lambda item: item[0])[1]
        merged: List[Optional[Dict[str, Any]]] = [None] * len(records)
        position = {qid: index for index, qid in enumerate(qids)}
        stats_parts: List[Dict[str, Any]] = []
        for target, response in zip(order, responses):
            try:
                payload = json.loads(response.payload)
            except (TypeError, ValueError):
                payload = None
            if not isinstance(payload, dict):  # pragma: no cover
                return HttpResponse(
                    502,
                    {
                        "error": f"worker {target} returned an "
                        "unmergeable batch response"
                    },
                )
            for result in payload.get("results", []):
                index = position.get(str(result.get("qid")))
                if index is not None and merged[index] is None:
                    merged[index] = result
            if isinstance(payload.get("stats"), dict):
                stats_parts.append(payload["stats"])
        if any(result is None for result in merged):  # pragma: no cover
            return HttpResponse(
                502, {"error": "batch scatter lost results"}
            )
        stats: Dict[str, Any] = {
            "queries": len(records),
            "mode": stats_parts[0].get("mode") if stats_parts else None,
        }
        for key in (
            "preps_built",
            "preps_shared",
            "cache_hits",
            "solved",
            "errors",
            "timeouts",
        ):
            stats[key] = sum(
                int(part.get(key, 0)) for part in stats_parts
            )
        return HttpResponse(
            200,
            {
                "status": "ok"
                if all(r.get("status") == "ok" for r in merged)
                else "partial",
                "results": merged,
                "stats": stats,
            },
        )

    def _split_batch(
        self, request: HttpRequest
    ) -> Optional[
        Tuple[
            List[Dict[str, Any]],
            Optional[Dict[str, Any]],
            List[int],
            List[str],
        ]
    ]:
        """The scatter plan for a batch, or ``None`` to forward whole.

        Returns ``(records, wrapper, targets, qids)``: the parsed
        records, the enclosing dict body (``None`` for a bare array),
        each record's serving worker, and the qid each record will
        carry — filled by :func:`~repro.batch.queries.fill_qids`, the
        rule one process names them by.  ``None`` means
        every record lands on the primary worker anyway, or the batch
        is one the router should not second-guess (malformed records,
        refs missing, duplicate qids — the worker owns those errors).
        """
        if not request.body:
            return None
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        wrapper: Optional[Dict[str, Any]] = None
        records = body
        if isinstance(body, dict):
            wrapper = body
            records = body.get("queries")
        if not isinstance(records, list) or not records:
            return None
        n = len(self._workers)
        primary: Optional[int] = None
        targets: List[int] = []
        explicit: List[str] = []
        for record in records:
            if not isinstance(record, dict):
                return None
            ref = None
            for field in ("graph", "dataset"):
                value = record.get(field)
                if isinstance(value, str):
                    ref = value
                    break
            if ref is None:
                return None
            owner = _shard(ref, n)
            if primary is None:
                primary = owner
            # An announced ref is servable anywhere by segment attach,
            # so it stays with the primary — the whole-batch fast path
            # and the cross-owner zero-copy read the topology is for.
            if owner == primary or ref in self._announced:
                targets.append(primary)
            else:
                targets.append(owner)
            explicit.append(str(record["qid"]) if "qid" in record else "")
        assert primary is not None
        if all(target == primary for target in targets):
            return None
        try:
            qids = fill_qids(explicit)
        except InputMismatchError:  # duplicate qids
            return None
        return records, wrapper, targets, qids

    # -- fan-out views -------------------------------------------------
    def _healthz(self) -> HttpResponse:
        return HttpResponse(
            200,
            {
                "status": "ok",
                "uptime_seconds": round(
                    time.monotonic() - self.started, 3
                ),
                "cluster": {
                    "workers": len(self._workers),
                    "restarts": sum(h.restarts for h in self._workers),
                    "segments_announced": len(self._announced),
                },
                "workers": [
                    {
                        "worker": h.worker_id,
                        "pid": h.pid,
                        "port": h.port,
                        "alive": h.alive,
                        "restarts": h.restarts,
                    }
                    for h in self._workers
                ],
            },
        )

    async def _fan_out(
        self, request: HttpRequest
    ) -> List[Tuple[_WorkerHandle, Optional[Any]]]:
        """GET *request* on every worker; ``None`` for the unreachable."""

        async def one(handle: _WorkerHandle) -> Optional[Any]:
            try:
                response = await send_request(
                    self.host, handle.port, request, 10.0
                )
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                return None
            if response.status != 200 or not isinstance(
                response.payload, str
            ):
                return None
            try:
                return json.loads(response.payload)
            except ValueError:  # pragma: no cover - worker bug guard
                return None

        results = await asyncio.gather(
            *(one(handle) for handle in self._workers)
        )
        return list(zip(self._workers, results))

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        pairs = await self._fan_out(
            HttpRequest(method="GET", path="/metrics")
        )
        snapshots = [snap for _, snap in pairs if snap is not None]
        wants_text = request.query.get(
            "format"
        ) == "prometheus" or "text/plain" in request.headers.get(
            "accept", ""
        )
        if wants_text:
            from repro.obs.prometheus import render_multi_exposition

            labelled = [
                ({"worker": str(snap.get("worker", i))}, snap)
                for i, snap in enumerate(snapshots)
            ]
            return HttpResponse(
                200,
                render_multi_exposition(labelled),
                content_type=(
                    "text/plain; version=0.0.4; charset=utf-8"
                ),
            )
        return HttpResponse(
            200,
            {
                "cluster": {
                    "workers": len(self._workers),
                    "reachable": len(snapshots),
                    "restarts": sum(h.restarts for h in self._workers),
                    "uptime_seconds": round(
                        time.monotonic() - self.started, 3
                    ),
                },
                "workers": snapshots,
                "aggregate": _aggregate(snapshots),
            },
        )

    async def _datasets(self, request: HttpRequest) -> HttpResponse:
        pairs = await self._fan_out(
            HttpRequest(method="GET", path="/v1/datasets")
        )
        graphs: set = set()
        warm: set = set()
        for _, snap in pairs:
            if isinstance(snap, dict):
                graphs.update(snap.get("graphs", []))
                warm.update(snap.get("warm", []))
        return HttpResponse(
            200, {"graphs": sorted(graphs), "warm": sorted(warm)}
        )

    async def _session_list(self, request: HttpRequest) -> HttpResponse:
        pairs = await self._fan_out(
            HttpRequest(method="GET", path="/v1/stream/sessions")
        )
        sessions: List[str] = []
        stats: List[Dict[str, Any]] = []
        for _, snap in pairs:
            if isinstance(snap, dict):
                sessions.extend(snap.get("sessions", []))
                if isinstance(snap.get("stats"), dict):
                    stats.append(snap["stats"])
        return HttpResponse(
            200,
            {"sessions": sorted(sessions), "stats": _aggregate(stats)},
        )


def _aggregate(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Field-wise sum of numeric counters across worker snapshots.

    Dicts recurse; numbers add; anything non-summable (rates,
    quantiles, uptime, the worker tag) is dropped — the per-worker
    section carries the full detail.
    """
    skip = {"uptime_seconds", "worker", "latency", "loop", "hit_rate"}
    out: Dict[str, Any] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in skip:
                continue
            if isinstance(value, dict):
                merged = _aggregate(
                    [value]
                    + (
                        [out[key]]
                        if isinstance(out.get(key), dict)
                        else []
                    )
                )
                out[key] = merged
            elif isinstance(value, bool):
                continue
            elif isinstance(value, (int, float)):
                existing = out.get(key, 0)
                if isinstance(existing, (int, float)):
                    out[key] = existing + value
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_cluster(
    workers: int,
    host: str = "127.0.0.1",
    port: int = 8765,
    app_options: Optional[Dict[str, Any]] = None,
    banner: Optional[Callable[[str, int], None]] = None,
) -> int:
    """Run the router + *workers* solver processes until SIGTERM/SIGINT.

    Blocks the calling process (the ``repro serve --workers N`` body).
    *banner* is called once with the bound ``(host, port)`` — the CLI
    prints its parseable ``listening on`` line there.
    """

    async def _run() -> None:
        router = ClusterRouter(
            workers, host=host, app_options=app_options
        )
        await router.start()
        server = await serve_http(router.handle, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if banner is not None:
            banner(bound_host, bound_port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await router.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
    print("# repro serve stopped", file=sys.stderr)
    return 0
