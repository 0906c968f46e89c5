"""The batch scheduler: shared-prep fan-out with isolation and caching.

Execution of one submission::

    queries ──► BatchPlan ──► preps built once (parent process)
                                   │
            cache lookup ◄─────────┤ fingerprints
                 │ misses          ▼
                 └─────► worker pool (or serial fallback)
                          · per-process table fingerprint -> payload,
                            shipped once at pool start
                          · GD+ / CSRAdjacency built per fingerprint,
                            shared across that worker's queries
                          · per-query timeout + failure isolation
                                   │
                                   ▼
                     BatchResult records (input order) ──► cache fill

Design decisions worth knowing:

* **Workers are processes**, not threads — the solvers are pure-Python
  hot loops, so threads would serialise on the GIL.  The pool is
  created per :meth:`BatchExecutor.run` with the deduplicated prep
  table as init args: each worker unpickles every shared graph exactly
  once, then serves any number of queries from it (queries themselves
  travel as tiny parameter records).
* **Serial fallback**: ``mode="auto"`` uses a pool only when it can
  actually help (more than one worker requested *and* more than one CPU
  present) and quietly falls back to in-process execution otherwise —
  same code path, same results, no pickling.  A pool whose workers die
  (:class:`~concurrent.futures.process.BrokenProcessPool`) also falls
  back, re-running the unfinished queries serially.
* **Failure isolation**: one query raising — bad parameters, a solver
  error — yields a ``status="error"`` record; every other query still
  completes.  Timeouts are enforced *where the query runs* via
  ``SIGALRM`` (each worker process owns its main thread), so a
  too-slow solve is actually interrupted, the worker stays healthy, and
  the record comes back ``status="timeout"``.  Failures — errors and
  timeouts alike — are never cached, because they can be transient;
  only real answers are memoised, and resubmission retries the rest.
* **Determinism**: a query's payload is produced by one pure function
  (:func:`execute_payload`) in every mode, so serial, pooled and cached
  runs are byte-identical (:meth:`BatchResult.canonical_json`) — the
  property the benchmark gate asserts.
"""

from __future__ import annotations

import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from types import FrameType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.batch.cache import ResultCache, cache_key, canonical_text
from repro.batch.plan import BatchPlan
from repro.batch.queries import BatchQuery, assign_qids
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.graph.graph import Graph
from repro.stream.events import EventLog

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "execute_payload",
    "run_guarded",
]


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """Outcome of one query: an answer, an error, or a timeout."""

    qid: str
    kind: str
    status: str  # "ok" | "error" | "timeout"
    fingerprint: str
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    seconds: float = 0.0
    #: phase -> self-time seconds, recorded where the solve ran (worker
    #: process or serial host); None for cached / failed / stream rows.
    profile: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical_json(self) -> str:
        """The *answer identity*: everything except provenance/timing.

        Two runs of the same query must produce equal canonical JSON
        whatever mode, worker count or cache state served them.  The
        byte form is :func:`~repro.batch.cache.canonical_text` — the
        same one the result cache persists — so cached bytes and fresh
        bytes can be compared directly.
        """
        return canonical_text(
            {
                "qid": self.qid,
                "kind": self.kind,
                "status": self.status,
                "fingerprint": self.fingerprint,
                "payload": self.payload,
                "error": self.error,
            }
        )

    def to_json(self) -> str:
        """Full one-line record (the ``repro batch`` JSONL output).

        ``profile`` rides here — the out-of-band form — and never in
        :meth:`canonical_json`: the phase breakdown is provenance of
        *one execution*, not part of the answer's identity.
        """
        return json.dumps(
            {
                "qid": self.qid,
                "kind": self.kind,
                "status": self.status,
                "fingerprint": self.fingerprint,
                "payload": self.payload,
                "error": self.error,
                "cached": self.cached,
                "seconds": self.seconds,
                "profile": self.profile,
            },
            sort_keys=True,
        )


@dataclass
class BatchStats:
    """What one :meth:`BatchExecutor.run` actually did."""

    queries: int = 0
    mode: str = "serial"
    workers: int = 1
    preps_built: int = 0
    preps_shared: int = 0
    prep_seconds: float = 0.0
    cache_hits: int = 0
    solved: int = 0
    errors: int = 0
    timeouts: int = 0
    solve_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: the plan-level profile: per-phase self-time seconds merged over
    #: every freshly solved graph query in the run
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)

    def summary(self) -> str:
        text = (
            f"queries={self.queries} mode={self.mode} workers={self.workers} "
            f"preps={self.preps_built} (+{self.preps_shared} shared) "
            f"cache_hits={self.cache_hits} solved={self.solved} "
            f"errors={self.errors} timeouts={self.timeouts} "
            f"prep={self.prep_seconds:.3f}s solve={self.solve_seconds:.3f}s "
            f"wall={self.wall_seconds:.3f}s"
        )
        if self.phase_seconds:
            phases = " ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(self.phase_seconds.items())
            )
            text += f" phases[{phases}]"
        return text


# ----------------------------------------------------------------------
# the pure solve: (query params, shared payload) -> JSON payload
# ----------------------------------------------------------------------
@dataclass
class _QuerySpec:
    """The picklable per-query work order shipped to workers."""

    qid: str
    kind: str
    fingerprint: str
    params: Dict[str, Any]


def _subset_json(subset: Iterable[object]) -> List[str]:
    return sorted(str(v) for v in subset)


def execute_payload(
    kind: str,
    params: Dict[str, Any],
    payload: Union[Graph, EventLog, PreparedGraph],
    prepared: Optional[PreparedGraph] = None,
) -> Dict[str, Any]:
    """Run one query on its prepared input; return the JSON-ready answer.

    This is the *only* place query semantics live — the serial path, the
    worker processes and the benchmarks all call it, which is what makes
    their results byte-identical.  Graph queries go through the engine's
    shared :class:`~repro.engine.envelope.SolveRequest` /
    :class:`~repro.engine.envelope.SolveResult` envelope; *prepared*
    optionally supplies the graph's shared
    :class:`~repro.engine.prepared.PreparedGraph` (positive part + CSR
    adjacencies, built once per fingerprint per process).
    """
    if kind in ("dcsad", "dcsga"):
        if prepared is None:
            if isinstance(payload, PreparedGraph):
                # The payload arrived already prepared (e.g. the
                # service's warm registry, possibly attached to a
                # shared-memory segment) — ride it as-is.
                prepared = payload
            else:
                assert isinstance(payload, Graph)
                prepared = PreparedGraph(payload)
        return solve(SolveRequest.from_params(kind, params), prepared).payload()
    if kind == "stream":
        from repro.stream.engine import replay_events

        assert isinstance(payload, EventLog)
        alerts, stats = replay_events(
            payload,
            n_steps=params["steps"],
            window=params["window"],
            measure=params["measure"],
            warmup=params["warmup"],
            backend=params["backend"],
            min_score=params["threshold"],
            tol_scale=params["tol_scale"],
        )
        return {
            "kind": "stream",
            "measure": params["measure"],
            "params": dict(params),
            "alerts": [
                {
                    "step": alert.step,
                    "score": alert.score,
                    "subset": _subset_json(alert.subset),
                    "measure": alert.measure,
                    "source": alert.source,
                }
                for alert in alerts
            ],
            "stats": {
                "steps": stats.steps,
                "events": stats.events,
                "full_solves": stats.full_solves,
                "cache_hits": stats.cache_hits,
            },
        }
    raise ValueError(f"unknown query kind {kind!r}")


# ----------------------------------------------------------------------
# worker-side shared state
# ----------------------------------------------------------------------
Payload = Union[Graph, EventLog, PreparedGraph]

#: fingerprint -> prepared payload (Graph, EventLog or an
#: already-built PreparedGraph stub riding a shared-memory segment),
#: set at pool init.  Pool workers only: a serial run keeps its own
#: tables, so concurrent serial runs never see or clear each other's.
_SHARED_PAYLOADS: Dict[str, Payload] = {}
#: fingerprint -> PreparedGraph (GD+ / CSR context), built lazily per
#: process — one preparation serves every query on the fingerprint,
#: DCSAD and DCSGA alike.
_SHARED_PREPARED: Dict[str, PreparedGraph] = {}


def _worker_init(
    payloads: Dict[str, Payload], warm: Tuple[str, ...] = ()
) -> None:
    """Pool initializer: receive the shared prep table once per worker."""
    _SHARED_PAYLOADS.clear()
    _SHARED_PAYLOADS.update(payloads)
    _SHARED_PREPARED.clear()
    _warm_backends(warm)


def _warm_backends(warm: Tuple[str, ...]) -> None:
    """Warm the backends a run's queries will use, once per process.

    A JIT-compiling backend (``native``) then compiles before the first
    query instead of inside its timed, timeout-budgeted solve.  Unknown
    or unavailable names are skipped: the query itself raises the
    precise error if the backend truly cannot run.
    """
    from repro.engine.registry import get_backend
    from repro.exceptions import UnknownBackendError

    for name in warm:
        try:
            backend = get_backend(name, require=False)
        except UnknownBackendError:
            continue
        if backend.available():
            backend.warm()


def _shared_prepared(
    fingerprint: str,
    graph: Union[Graph, PreparedGraph],
    table: Dict[str, PreparedGraph],
) -> PreparedGraph:
    """The :class:`PreparedGraph` of a fingerprint, created once.

    The positive-part walk and the CSR freezes are the per-graph fixed
    costs of graph queries; the prepared context builds each lazily on
    first need and shares them across every query this process serves
    on the fingerprint — the "prepare exactly once" contract.  A
    payload that is *already* a :class:`PreparedGraph` (the service's
    warm registry object, or its shared-memory stub unpickled at pool
    init) is adopted directly — nothing is rebuilt.
    """
    prepared = table.get(fingerprint)
    if prepared is None:
        if isinstance(graph, PreparedGraph):
            prepared = graph
        else:
            prepared = PreparedGraph(graph, fingerprint=fingerprint)
        table[fingerprint] = prepared
    return prepared


class _QueryTimeout(Exception):
    """Raised (via SIGALRM) inside the executing process on timeout."""


def run_guarded(
    work: Any, timeout: Optional[float] = None
) -> Tuple[str, Any, float]:
    """Run ``work()`` under timeout enforcement and failure isolation.

    This is the executor's per-query guard, factored out so other
    delivery layers (the long-running query service) enforce the same
    budget semantics on the same code path.  When the calling thread is
    the process's main thread, *timeout* is enforced with a real
    ``SIGALRM`` interrupt; elsewhere — a non-main thread, a platform
    without ``SIGALRM`` — it degrades to advisory (the work runs to
    completion) and the caller is expected to bound the *wait* itself.

    Returns ``(status, value, seconds)`` with *seconds* measured where
    the work actually ran: ``("ok", result, s)``,
    ``("error", message, s)`` or ``("timeout", message, s)``.  Nothing
    work-level is raised — returning the failure keeps it picklable
    and the worker healthy; only infrastructure failures propagate.
    """
    start = time.perf_counter()
    use_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
    )
    if use_alarm:
        def _on_alarm(signum: int, frame: Optional[FrameType]) -> None:
            raise _QueryTimeout()

        try:
            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
        except ValueError:
            # Not the main thread: timeouts degrade to advisory.
            use_alarm = False
        else:
            try:
                previous_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
            except ValueError:
                # signal() succeeded but the timer could not be armed
                # (non-main-thread race).  Degrade to advisory — but
                # first put the host's handler back: leaving our
                # _on_alarm installed would leak a handler whose
                # _QueryTimeout escapes into unrelated host code the
                # next time anything arms SIGALRM.
                signal.signal(signal.SIGALRM, previous_handler)
                use_alarm = False
    try:
        try:
            answer = work()
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous_handler)
                old_delay, old_interval = previous_timer
                if old_delay or old_interval:
                    # Serial mode runs in the host process: re-arm any
                    # watchdog it had, net of the time we consumed (an
                    # already-expired one fires as soon as possible).
                    remaining = max(
                        1e-6, old_delay - (time.perf_counter() - start)
                    )
                    signal.setitimer(
                        signal.ITIMER_REAL, remaining, old_interval
                    )
    except _QueryTimeout:
        return (
            "timeout",
            f"query exceeded its {timeout}s timeout",
            time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 - the isolation boundary
        return (
            "error",
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
        )
    return "ok", answer, time.perf_counter() - start


def _run_spec(
    spec: _QuerySpec,
    timeout: Optional[float] = None,
    payloads: Dict[str, Payload] = _SHARED_PAYLOADS,
    prepared_table: Dict[str, PreparedGraph] = _SHARED_PREPARED,
) -> Tuple[str, Any, float, Optional[Dict[str, float]]]:
    """Execute one work order against a payload and a prepared table.

    Runs in a worker process on the tables its initializer installed
    (the defaults), or in the submitting process on a serial run's own
    tables.  In a pool worker, or on the main thread, :func:`run_guarded`
    enforces *timeout* with a real ``SIGALRM`` interrupt where the
    platform allows.  The lazy per-fingerprint preparation happens
    inside the guarded work, so it counts against the query's budget.

    Graph queries run under a recording tracer *in the executing
    process*; the span tree never crosses the pool boundary — only the
    derived phase dict does, returned as the fourth element (``None``
    on failure and for stream replays, whose per-step solves stay on
    the no-op hot path by design).
    """
    payload = payloads[spec.fingerprint]

    def work() -> Dict[str, Any]:
        prepared = None
        if isinstance(payload, (Graph, PreparedGraph)):
            prepared = _shared_prepared(
                spec.fingerprint, payload, prepared_table
            )
        return execute_payload(
            spec.kind, spec.params, payload, prepared=prepared
        )

    if spec.kind in ("dcsad", "dcsga"):
        from repro.obs.trace import recording

        def traced_work() -> Tuple[Dict[str, Any], Dict[str, float]]:
            with recording() as tracer:
                answer = work()
            return answer, tracer.phase_totals()

        status, value, seconds = run_guarded(traced_work, timeout)
        if status == "ok":
            answer, profile = value
            return status, answer, seconds, profile
        return status, value, seconds, None

    status, value, seconds = run_guarded(work, timeout)
    return status, value, seconds, None


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class BatchExecutor:
    """Run batches of typed DCS queries with shared prep and caching.

    Parameters
    ----------
    workers:
        Worker processes to fan solves across (``1`` = in-process).
    mode:
        ``"auto"`` (pool only when it can help), ``"process"`` (force a
        pool), or ``"serial"`` (force in-process).
    cache:
        A :class:`~repro.batch.cache.ResultCache`; defaults to a fresh
        in-memory cache owned by this executor.
    timeout:
        Default per-query solve timeout in seconds (a query's own
        ``timeout`` field overrides it).  ``None`` = unbounded.
    """

    def __init__(
        self,
        workers: int = 1,
        mode: str = "auto",
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if mode not in ("auto", "process", "serial"):
            raise ValueError(f"unknown mode {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.mode = mode
        self.cache = cache if cache is not None else ResultCache()
        self.timeout = timeout
        self.stats = BatchStats()

    def _effective_mode(self, pending: int) -> str:
        if self.mode == "process":
            # Explicitly forced: honour it even for one worker or one
            # query (callers use this to validate the pooled path).
            return "process"
        if self.mode == "serial" or self.workers == 1 or pending <= 1:
            return "serial"
        # auto: a pool of pure-Python solvers only helps with real CPUs;
        # on a single core it would just add pickling and fork latency.
        return "process" if (os.cpu_count() or 1) > 1 else "serial"

    def run(self, queries: Sequence[BatchQuery]) -> List[BatchResult]:
        """Execute *queries*; return one result per query, input order."""
        wall_start = time.perf_counter()
        queries = assign_qids(queries)
        plan = BatchPlan(queries)
        preps = plan.run_preps()
        payload_table: Dict[str, Payload] = {
            prep.fingerprint: prep.payload
            for prep in preps.values()
            if prep.payload is not None
        }
        self.stats = BatchStats(
            queries=len(queries),
            workers=self.workers,
            preps_built=len(preps),
            preps_shared=plan.shared_preps,
            prep_seconds=sum(p.seconds for p in preps.values()),
        )

        results: List[Optional[BatchResult]] = [None] * len(queries)
        keys: List[str] = [""] * len(queries)
        pending: List[Tuple[int, _QuerySpec, Optional[float]]] = []
        first_of_key: Dict[Tuple[str, Optional[float]], int] = {}
        duplicates: List[Tuple[int, int]] = []  # (position, primary)
        for position, query in enumerate(queries):
            prep = preps[plan.prep_of[position]]
            if prep.error is not None:
                # Prep-level failure isolation: only the dependants fail.
                results[position] = BatchResult(
                    qid=query.qid,
                    kind=query.kind,
                    status="error",
                    fingerprint="",
                    error=f"prep failed: {prep.error}",
                    seconds=prep.seconds,
                )
                continue
            params = query.solve_params()
            try:
                keys[position] = cache_key(prep.fingerprint, params)
            except ValueError as exc:
                # Unhashable parameters (non-finite floats) fail only
                # the offending query — the executor's per-query
                # isolation contract — never the whole submission.
                results[position] = BatchResult(
                    qid=query.qid,
                    kind=query.kind,
                    status="error",
                    fingerprint=prep.fingerprint,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            hit = self.cache.get(keys[position])
            if hit is not None:
                self.stats.cache_hits += 1
                results[position] = BatchResult(
                    qid=query.qid,
                    kind=query.kind,
                    status=hit["status"],
                    fingerprint=prep.fingerprint,
                    payload=hit["payload"],
                    error=hit.get("error"),
                    cached=True,
                )
                continue
            timeout = (
                query.timeout if query.timeout is not None else self.timeout
            )
            # Same input, same parameters, same *budget*, same
            # submission: solve once and fan the answer out
            # (memoisation within a run, not just across runs).  The
            # budget is part of the dedup identity so a query with a
            # looser timeout never inherits a tighter twin's failure.
            dedup_key = (keys[position], timeout)
            primary = first_of_key.get(dedup_key)
            if primary is not None:
                duplicates.append((position, primary))
                continue
            first_of_key[dedup_key] = position
            spec = _QuerySpec(
                qid=query.qid,
                kind=query.kind,
                fingerprint=prep.fingerprint,
                params=params,
            )
            pending.append((position, spec, timeout))

        mode = self._effective_mode(len(pending))
        self.stats.mode = mode
        # Backends this run will solve with, for per-process warm-up at
        # worker start (JIT compilation must happen once per process,
        # never inside a timed query).
        warm = tuple(
            sorted(
                {
                    str(spec.params["backend"])
                    for _, spec, _ in pending
                    if spec.params.get("backend")
                }
            )
        )
        if pending:
            if mode == "process":
                try:
                    self._run_pooled(payload_table, pending, results, warm)
                except BrokenProcessPool:
                    # A worker died (OOM, hard crash).  Finish the batch
                    # in-process rather than failing the submission.
                    self.stats.mode = "process+serial-fallback"
                    self._run_serial(
                        payload_table,
                        [p for p in pending if results[p[0]] is None],
                        results,
                        warm,
                    )
            else:
                self._run_serial(payload_table, pending, results, warm)

        for position, primary in duplicates:
            source = results[primary]
            assert source is not None
            query = queries[position]
            if source.status == "ok":
                self.stats.cache_hits += 1
            results[position] = BatchResult(
                qid=query.qid,
                kind=query.kind,
                status=source.status,
                fingerprint=source.fingerprint,
                payload=source.payload,
                error=source.error,
                # Only a real answer counts as served-from-memo; a
                # replicated failure is not a cached result.
                cached=source.status == "ok",
            )

        for position, result in enumerate(results):
            assert result is not None, "every query must produce a record"
            if result.status == "error":
                self.stats.errors += 1
            elif result.status == "timeout":
                self.stats.timeouts += 1
            if result.cached or not keys[position]:
                continue
            self.stats.solve_seconds += result.seconds
            if result.profile:
                for phase, seconds in result.profile.items():
                    self.stats.phase_seconds[phase] = (
                        self.stats.phase_seconds.get(phase, 0.0) + seconds
                    )
            if result.status == "ok":
                self.stats.solved += 1
            if result.status == "ok" and keys[position]:
                # Only real answers are memoised.  Errors and timeouts
                # can be transient (a worker OOM, a missing optional
                # dependency, a tight budget) — caching them would serve
                # the failure forever; resubmission retries instead.
                self.cache.put(
                    keys[position],
                    {
                        "status": result.status,
                        "payload": result.payload,
                        "error": result.error,
                    },
                )
        self.stats.wall_seconds = time.perf_counter() - wall_start
        return results  # type: ignore[return-value]

    # -- execution paths ----------------------------------------------
    def _collect(
        self,
        position: int,
        spec: _QuerySpec,
        results: List[Optional[BatchResult]],
        waiter: Callable[
            [], Tuple[str, Any, float, Optional[Dict[str, float]]]
        ],
    ) -> None:
        wait_start = time.perf_counter()
        profile: Optional[Dict[str, float]] = None
        try:
            status, value, seconds, profile = waiter()
        except BrokenProcessPool:
            raise
        except Exception as exc:  # pool infrastructure / pickling failure
            status = "error"
            value = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - wait_start
        results[position] = BatchResult(
            qid=spec.qid,
            kind=spec.kind,
            status=status,
            fingerprint=spec.fingerprint,
            payload=value if status == "ok" else None,
            error=None if status == "ok" else value,
            seconds=seconds,
            profile=profile,
        )

    def _run_serial(
        self,
        payload_table: Dict[str, Payload],
        pending: Sequence[Tuple[int, _QuerySpec, Optional[float]]],
        results: List[Optional[BatchResult]],
        warm: Tuple[str, ...] = (),
    ) -> None:
        # The run owns its tables (never the pool-worker globals), so a
        # serial run in another thread cannot swap or clear them; the
        # graphs and CSR buffers are released when the run returns.
        _warm_backends(warm)
        prepared_table: Dict[str, PreparedGraph] = {}
        for position, spec, timeout in pending:
            self._collect(
                position, spec, results,
                lambda spec=spec, timeout=timeout: _run_spec(
                    spec, timeout, payload_table, prepared_table
                ),
            )

    def _run_pooled(
        self,
        payload_table: Dict[str, Payload],
        pending: Sequence[Tuple[int, _QuerySpec, Optional[float]]],
        results: List[Optional[BatchResult]],
        warm: Tuple[str, ...] = (),
    ) -> None:
        needed = {spec.fingerprint for _, spec, _ in pending}
        table = {
            fp: payload
            for fp, payload in payload_table.items()
            if fp in needed
        }
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            initializer=_worker_init,
            initargs=(table, warm),
        ) as pool:
            futures = [
                (position, spec, pool.submit(_run_spec, spec, timeout))
                for position, spec, timeout in pending
            ]
            for position, spec, future in futures:
                self._collect(position, spec, results, future.result)
