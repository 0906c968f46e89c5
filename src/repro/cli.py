"""Command-line interface: mine DCS from edge-list files or event streams.

Usage (also via ``python -m repro``)::

    repro stats  G1.txt G2.txt            # Table II style statistics
    repro dcsad  G1.txt G2.txt            # DCSGreedy (average degree)
    repro dcsga  G1.txt G2.txt --top-k 3  # NewSEA / top-k (graph affinity)
    repro batch  queries.json --workers 4 # batch service -> JSONL results
    repro serve  --port 8765              # long-running HTTP query service
    repro stream events.txt --window 5    # incremental monitoring -> JSON

Graphs are whitespace edge lists (``u v weight``; bare ``u`` lines declare
isolated vertices — the format of :mod:`repro.graph.io`).  Shared flags:

* ``--alpha A``    mine ``rho2 - A * rho1`` (Section III-D),
* ``--flip``       swap G1/G2 (mine the disappearing direction),
* ``--discrete``   apply the paper's DBLP Discrete quantisation,
* ``--cap C``      clamp difference weights into ``[-C, C]``.

The mining commands also take ``--backend NAME``, resolved through the
engine registry (:mod:`repro.engine`): ``python`` is the pure-Python
reference implementation, ``sparse`` the vectorised CSR/NumPy backend
(same results, much faster on large graphs), and any backend
registered via :func:`repro.engine.register_backend` works by name.
``--json`` prints the full typed result envelope
(:class:`repro.engine.SolveResult`: measure, params, vertices,
density, the Theorem 2 beta certificate, KKT status, timings,
provenance) instead of the human-readable summary.

``repro batch`` serves many typed queries in one submission: a JSON
array (or JSONL) of query objects — each naming a ``kind`` (``dcsad`` /
``dcsga``), an input (``g1``/``g2`` paths or a registry ``dataset``
name) and any of the flags above as fields — is planned into a
deduplicated work DAG, executed across ``--workers`` processes with
per-query ``--timeout`` isolation, memoised in a content-addressed cache
(``--cache-dir`` persists it), and written back as one JSONL result
record per query.

``repro serve`` starts the long-running query service
(:mod:`repro.service`): an HTTP/JSON server that keeps named graphs
prepared in a warm LRU and serves solve / batch / stream-session
requests against them, with admission control (429 on overflow),
per-request timeouts, ``/healthz`` and ``/metrics``.

``repro stream`` reads an **event file** (``t u v w`` lines: at step
``t`` the observed strength of pair ``(u, v)`` became ``w``; bare ``u``
lines declare vertices — :mod:`repro.stream.events`), replays it through
the incremental :class:`~repro.stream.engine.StreamingDCSEngine`
(:func:`~repro.stream.engine.replay_events`), and prints one JSON alert
per line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import format_embedding, format_ratio
from repro.analysis.stats import NamedDifferenceGraph, dataset_stats_table
from repro.core.difference import assemble_difference
from repro.engine.envelope import SolveRequest, SolveResult, solve
from repro.engine.prepared import PreparedGraph
from repro.graph.graph import Graph
from repro.graph.io import read_pair


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mine Density Contrast Subgraphs (ICDE 2018) from "
        "two edge-list graphs over the same vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("g1", help="edge list of the first graph (G1)")
        p.add_argument("g2", help="edge list of the second graph (G2)")
        p.add_argument(
            "--alpha",
            type=float,
            default=1.0,
            help="mine rho2 - alpha*rho1 (default 1.0)",
        )
        p.add_argument(
            "--flip",
            action="store_true",
            help="swap G1 and G2 (mine the disappearing direction)",
        )
        p.add_argument(
            "--discrete",
            action="store_true",
            help="apply the paper's DBLP Discrete quantisation",
        )
        p.add_argument(
            "--cap",
            type=float,
            default=None,
            help="clamp difference weights into [-CAP, CAP]",
        )

    stats = sub.add_parser("stats", help="difference-graph statistics")
    add_common(stats)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            default="python",
            help="solver backend name from the engine registry: 'python' "
            "(pure-Python reference), 'sparse' (vectorised CSR/NumPy), "
            "'native' (Numba-compiled kernels; requires numba), "
            "or any backend registered via "
            "repro.engine.register_backend (default: python)",
        )

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json",
            action="store_true",
            help="print the full typed result envelope (answer + "
            "timings + provenance) as one JSON object",
        )

    def add_profile(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile",
            action="store_true",
            help="trace the solve and print its span tree with "
            "per-phase self-times to stderr; with --json the same "
            "breakdown also appears in timings['phases']",
        )

    dcsad = sub.add_parser(
        "dcsad", help="density contrast subgraph w.r.t. average degree"
    )
    add_common(dcsad)
    add_backend(dcsad)
    add_json(dcsad)
    add_profile(dcsad)
    dcsad.add_argument(
        "--top-k", type=int, default=1, help="mine k disjoint answers"
    )

    dcsga = sub.add_parser(
        "dcsga", help="density contrast subgraph w.r.t. graph affinity"
    )
    add_common(dcsga)
    add_backend(dcsga)
    add_json(dcsga)
    add_profile(dcsga)
    dcsga.add_argument(
        "--top-k", type=int, default=1, help="mine k disjoint answers"
    )

    batch = sub.add_parser(
        "batch",
        help="serve a batch of typed DCS queries (JSON/JSONL in, JSONL out)",
    )
    batch.add_argument(
        "queries",
        help="query file: a JSON array or JSONL of query objects "
        "(fields mirror the dcsad/dcsga flags; see "
        "repro.batch.queries)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the solve fan-out (default 1)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-query solve timeout in seconds",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="persist the content-addressed result cache here "
        "(default: in-memory only)",
    )
    batch.add_argument(
        "--out",
        default=None,
        help="write JSONL results to this file (default: stdout)",
    )
    batch.add_argument(
        "--plan",
        action="store_true",
        help="print the deduplicated work DAG and exit without solving",
    )

    serve = sub.add_parser(
        "serve",
        help="long-running HTTP/JSON query service (warm graph cache, "
        "batch + stream-session routes, /healthz, /metrics)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral port and prints it "
        "(default 8765)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; 1 (default) serves in-process, N >= 2 "
        "spawns N solver processes behind a router that shards graphs "
        "by reference and shares prepared CSR arrays via /dev/shm",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="admission queue bound; overflow answers 429 (default 32)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request solve timeout in seconds "
        "(a request's own 'timeout' field overrides it)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persist the content-addressed result cache here "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--warm-capacity",
        type=int,
        default=8,
        help="prepared graphs kept warm in the LRU (default 8)",
    )
    serve.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="synthesis scale for dataset references (default 0.25)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=32,
        help="resident stream sessions allowed; overflow answers 429 "
        "(default 32)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        help="idle seconds before a stream session expires "
        "(default: never)",
    )
    serve.add_argument(
        "--session-budget",
        type=int,
        default=None,
        help="soft memory budget in graph cells; session charges shed "
        "warm preparations past it (default: unbounded)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="attach a JSON-lines log handler at this level "
        "(default: no logging, today's silent behaviour)",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON access record per request "
        "(implies --log-level info unless set explicitly)",
    )
    serve.add_argument(
        "--slow-query",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a warning for compute requests slower than this "
        "(default: disabled)",
    )

    stream = sub.add_parser(
        "stream",
        help="incremental DCS monitoring over an event file (JSON alerts)",
    )
    stream.add_argument("events", help="event file (t u v w lines)")
    stream.add_argument(
        "--window",
        type=int,
        default=5,
        help="steps of history forming the expectation (default 5)",
    )
    stream.add_argument(
        "--measure",
        choices=("average_degree", "affinity"),
        default="average_degree",
        help="contrast measure: DCSGreedy or NewSEA (default average_degree)",
    )
    stream.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="steps to observe before alerting (default: the window size)",
    )
    stream.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="emit only alerts scoring strictly above this (default 0)",
    )
    stream.add_argument(
        "--steps",
        type=int,
        default=None,
        help="close exactly this many steps (default: through the last event)",
    )
    stream.add_argument(
        "--top-k",
        type=int,
        default=1,
        help="rank k answers per solve; the final ranking is "
        "summarised on stderr (default 1)",
    )
    add_backend(stream)

    lint = sub.add_parser(
        "lint",
        help="AST-based concurrency & determinism invariant checker",
    )
    from repro.lintkit.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _load_difference(args: argparse.Namespace) -> Graph:
    g1, g2 = read_pair(args.g1, args.g2)
    if args.discrete and args.alpha != 1.0:
        raise SystemExit("--discrete and --alpha are mutually exclusive")
    return assemble_difference(
        g1,
        g2,
        alpha=args.alpha,
        flipped=args.flip,
        discrete=args.discrete,
        cap=args.cap,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    gd = _load_difference(args)
    entry = NamedDifferenceGraph(
        data=args.g2,
        setting="Discrete" if args.discrete else "Weighted",
        gd_type="Flipped" if args.flip else "G2-G1",
        graph=gd,
    )
    print(dataset_stats_table([entry]).render())
    return 0


def _solve_envelope(args: argparse.Namespace, measure: str) -> SolveResult:
    """One engine round-trip shared by the two mining commands."""
    from repro.exceptions import (
        BackendUnavailableError,
        UnknownBackendError,
    )

    prepared = PreparedGraph(_load_difference(args))
    if args.json:
        # The envelope's provenance carries the input identity when it
        # is already known; for JSON consumers it is worth computing.
        prepared.fingerprint
    request = SolveRequest(
        measure=measure,
        backend=args.backend,
        k=args.top_k,
        # The KKT verification pass is extra work whose result only the
        # JSON envelope surfaces; the human summary reads the
        # positive-clique flag the solver computed anyway.
        check_kkt=args.json,
    )
    try:
        if not args.profile:
            return solve(request, prepared)
        from repro.obs.trace import recording, render_trace

        with recording() as tracer:
            result = solve(request, prepared)
    except (UnknownBackendError, BackendUnavailableError) as exc:
        raise SystemExit(str(exc))
    # The tree goes to stderr so `--json --profile` keeps stdout as one
    # parseable JSON object.
    print(render_trace(tracer), file=sys.stderr)
    return result


def _cmd_dcsad(args: argparse.Namespace) -> int:
    result = _solve_envelope(args, "average_degree")
    if args.json:
        print(result.to_json())
        return 0
    if args.top_k <= 1:
        print(f"subset ({len(result.subset)} vertices):")
        print("  " + " ".join(result.vertices))
        print(f"average degree contrast: {result.density:.6g}")
        print(f"approximation ratio bound: {format_ratio(result.beta)}")
        return 0
    for item in result.detail["results"]:
        members = " ".join(item["vertices"])
        print(
            f"#{item['rank'] + 1}: contrast {item['density']:.6g} "
            f"({len(item['vertices'])} vertices): {members}"
        )
    return 0


def _cmd_dcsga(args: argparse.Namespace) -> int:
    result = _solve_envelope(args, "affinity")
    if args.json:
        print(result.to_json())
        return 0
    if args.top_k <= 1:
        assert result.embedding is not None
        print(f"support ({len(result.subset)} vertices):")
        print("  " + format_embedding(result.embedding.items()))
        print(f"affinity contrast: {result.density:.6g}")
        print(f"positive clique: {result.detail['is_positive_clique']}")
        return 0
    for item in result.detail["results"]:
        print(
            f"#{item['rank'] + 1}: affinity {item['density']:.6g}: "
            + format_embedding(item["embedding"].items())
        )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream.engine import replay_events
    from repro.stream.events import read_events

    log = read_events(args.events)
    if not log.universe:
        raise SystemExit(f"{args.events}: no vertices declared or evented")
    try:
        alerts, engine = replay_events(
            log,
            n_steps=args.steps,
            window=args.window,
            measure=args.measure,
            warmup=args.warmup,
            backend=args.backend,
            min_score=args.threshold,
            k=args.top_k,
        )
    except ValueError as exc:  # bad --top-k and friends exit cleanly
        raise SystemExit(str(exc))
    stats = engine.stats
    for alert in alerts:
        print(alert.to_json())
    print(
        f"# steps={stats.steps} events={stats.events} alerts={len(alerts)} "
        f"solves={stats.full_solves} cache_hits={stats.cache_hits}",
        file=sys.stderr,
    )
    if args.top_k > 1:
        for item in engine.current_topk():
            members = ",".join(sorted(str(v) for v in item.subset))
            print(
                f"# topk rank={item.rank} score={item.objective:.6f} "
                f"subset={members}",
                file=sys.stderr,
            )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchExecutor, BatchPlan, ResultCache, read_queries

    try:
        queries = read_queries(args.queries)
    except (ValueError, TypeError, OSError) as exc:
        # InputMismatchError is a ValueError; TypeError covers fields
        # of the wrong JSON type (e.g. "k": "3"); OSError covers a
        # missing/unreadable file — untrusted input must exit cleanly,
        # never with a traceback.
        raise SystemExit(f"{args.queries}: {exc}")
    if not queries:
        raise SystemExit(f"{args.queries}: no queries")
    if args.plan:
        print(BatchPlan(queries).describe())
        return 0
    try:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        executor = BatchExecutor(
            workers=args.workers, cache=cache, timeout=args.timeout
        )
    except (ValueError, OSError) as exc:  # bad --workers, cache dir, ...
        raise SystemExit(str(exc))
    results = executor.run(queries)
    lines = "\n".join(result.to_json() for result in results)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(lines + "\n")
        except OSError as exc:
            raise SystemExit(f"{args.out}: {exc}")
    else:
        print(lines)
    print(f"# {executor.stats.summary()}", file=sys.stderr)
    return 0 if all(r.status == "ok" for r in results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.batch.cache import ResultCache
    from repro.service import ServiceApp

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.log_level is not None or args.access_log:
        from repro.obs.logs import configure_logging

        configure_logging(level=args.log_level or "info")

    if args.workers >= 2:
        # Multi-process scale-out: a router in front of N full service
        # workers, graphs sharded by reference and shared zero-copy
        # via /dev/shm (repro.service.cluster).  Each worker process
        # warms its backends itself; the persistent result cache stays
        # single-process-only (each worker keeps an in-memory cache).
        from repro.service.cluster import run_cluster

        if args.cache_dir:
            print(
                "# --cache-dir is ignored with --workers >= 2 "
                "(per-worker in-memory caches)",
                file=sys.stderr,
            )
        try:
            return run_cluster(
                args.workers,
                host=args.host,
                port=args.port,
                app_options={
                    "max_pending": args.max_pending,
                    "timeout": args.timeout,
                    "warm_capacity": args.warm_capacity,
                    "scale": args.scale,
                    "max_sessions": args.max_sessions,
                    "session_ttl": args.session_ttl,
                    "session_budget_cells": args.session_budget,
                    "access_log": args.access_log,
                    "slow_query_seconds": args.slow_query,
                    "log_level": args.log_level,
                },
                banner=lambda host, port: print(
                    f"# repro serve listening on http://{host}:{port}",
                    flush=True,
                ),
            )
        except (ValueError, OSError, RuntimeError) as exc:
            raise SystemExit(str(exc))

    try:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        app = ServiceApp(
            cache=cache,
            max_pending=args.max_pending,
            timeout=args.timeout,
            warm_capacity=args.warm_capacity,
            scale=args.scale,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
            session_budget_cells=args.session_budget,
            access_log=args.access_log,
            slow_query_seconds=args.slow_query,
        )
    except (ValueError, OSError) as exc:  # bad --max-pending, cache dir, ...
        raise SystemExit(str(exc))

    from repro.engine.registry import warm_backends

    warmed = warm_backends()
    print(f"# warmed backends: {', '.join(warmed)}", file=sys.stderr)

    async def _run() -> None:
        server = await app.start_server(host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        # One parseable line on stdout so scripts (the smoke job, the
        # benchmark harness) can discover an ephemeral --port 0.
        print(f"# repro serve listening on http://{host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()
            await app.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("# repro serve stopped", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lintkit.cli import run_from_args

    return run_from_args(args)


_COMMANDS = {
    "stats": _cmd_stats,
    "dcsad": _cmd_dcsad,
    "dcsga": _cmd_dcsga,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
