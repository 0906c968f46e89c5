"""solve-large: the in-process library path on a 20k-vertex pair.

One caller, closed loop: ``engine.solve`` with the sparse backend,
alternating DCSAD and DCSGA on one ``PreparedGraph``.  ``core`` and
``peeling`` do almost all the work; ``service`` and ``stream`` none.

A timed run sets up and solves in ``PROCESSES`` fresh processes, one
after another (``python3 pb_solve_large.py <seed>`` is one of them);
a traced run does it all in the calling process.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from contextlib import ExitStack
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from pb_common import Pacer, Spans, Tally, vm_hwm_mb
import pb_inputs

#: processes a timed run sets up and solves in, one after another;
#: setup_s is the median of their set-ups.  The speed of a process on
#: this host has a part of its own: two identical solve processes run
#: side by side took 0.92-1.13x each other's DCSAD time, and within
#: ten runs of three processes each the three paced DCSAD medians of a
#: run differed by up to 1.5x.  The solves of all processes are pooled.
PROCESSES = 5
#: DCSGA + DCSAD pairs per run, an odd count so each median is one
#: solve, and a multiple of PROCESSES.  At 20k vertices on 2 vCPUs a
#: pair takes about 1 s.
PAIRS = 15
#: the two solve kinds, in the order every warm-up and pair runs them
KINDS = ("affinity", "average_degree")
#: the fixed op list: alternating kinds
OPS = [kind for _ in range(PAIRS) for kind in KINDS]
#: a timed run's processes each run this share of OPS
PROCESS_OPS = OPS[: len(OPS) // PROCESSES]


def _prepare(g1: Any, g2: Any) -> Any:
    from repro.engine.prepared import PreparedGraph

    prepared = PreparedGraph.from_pair(g1, g2)
    prepared.fingerprint  # noqa: B018 - the set-up pays for identity
    prepared.csr()
    prepared.csr_plus()
    return prepared


def _solve(kind: str, prepared: Any) -> Tuple[Any, float, float, float]:
    """One solve: the result, its perf_counter start and end, and the
    CPU seconds of the calling thread, which runs all of it."""
    from repro.engine.envelope import SolveRequest, solve

    start, cpu = time.perf_counter(), time.thread_time()
    result = solve(SolveRequest(kind, backend="sparse"), prepared)
    return result, start, time.perf_counter(), time.thread_time() - cpu


def _check(result: Any, members: set, tally: Tally, first: Dict[str, str]) -> bool:
    """Output checks of one answer; each failure is logged in *tally*."""
    ok = True
    outside = [v for v in result.subset if v not in members]
    ok &= tally.check(not outside, f"{result.kind}: {len(outside)} answer vertices are not planted emerging members")
    if result.kind == "dcsad":
        ok &= tally.check(result.beta is not None and result.beta >= 1.0, f"dcsad beta {result.beta} < 1")
    else:
        kkt = result.kkt or {}
        ok &= tally.check(
            kkt.get("is_kkt_point") is True and kkt.get("is_positive_clique") is True,
            f"dcsga support is not a KKT positive clique: {kkt}",
        )
    canonical = result.canonical_json()
    ok &= tally.check(first.setdefault(result.kind, canonical) == canonical, f"{result.kind}: repeated solve changed its payload")
    return ok


def _warm_caches() -> None:
    """Discarded warm-up: imports, bytecode and first-call costs on a
    small pair, so none of them lands in the measured set-ups."""
    small = pb_inputs.large_pair(0, n=3000)
    prepared = _prepare(pb_inputs.to_graph(small.n, small.g1), pb_inputs.to_graph(small.n, small.g2))
    for kind in KINDS:
        _solve(kind, prepared)


def _set_up(seed: int, tally: Tally, first: Dict[str, str], spans: Optional[Spans] = None) -> Tuple[Any, set, Tuple[float, float, float]]:
    """Warm up, then one timed set-up: prepare, and one warm-up solve
    of each kind.  Returns the prepared pair, the planted emerging
    members and the set-up's start, end and CPU seconds."""
    _warm_caches()
    pair = pb_inputs.large_pair(seed)
    members = pair.emerging_members()
    g1, g2 = pb_inputs.to_graph(pair.n, pair.g1), pb_inputs.to_graph(pair.n, pair.g2)
    gc.collect()
    with ExitStack() as stack:
        if spans is not None:
            _instrument_setup(spans, stack)
        start, cpu = time.perf_counter(), time.thread_time()
        prepared = _prepare(g1, g2)
        for kind in KINDS:
            _check(_solve(kind, prepared)[0], members, tally, first)
        return prepared, members, (start, time.perf_counter(), time.thread_time() - cpu)


def _process(seed: int) -> Dict[str, Any]:
    """One process of a timed run: a set-up and PROCESS_OPS, checked
    after the timed solves."""
    tally = Tally()
    first: Dict[str, str] = {}
    prepared, members, setup = _set_up(seed, tally, first)
    setup_ok = tally.correct
    timed = [_solve(kind, prepared) for kind in PROCESS_OPS]
    return {
        "setup": setup,
        "setup_ok": setup_ok,
        "ops": [(result.kind, start, end, cpu) for result, start, end, cpu in timed],
        "ok": [_check(result, members, tally, first) for result, _, _, _ in timed],
        "reasons": tally.reasons,
        "payloads": first,
        "gd_edges": prepared.gd.num_edges,
        "vm_hwm_mb": vm_hwm_mb(os.getpid()),
    }


def run(seed: int, seconds: int, trace: bool, tally: Tally, pacer: Pacer) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One run; *seconds* is unused (the op list is fixed, see PAIRS)."""
    if trace:
        first: Dict[str, str] = {}
        setup_spans = Spans()
        prepared, members, setup = _set_up(seed, tally, first, setup_spans)
        extra: Dict[str, Any] = {"n": pb_inputs.LARGE_N, "gd_edges": prepared.gd.num_edges, "ops": len(OPS), "setups_s": [setup[1] - setup[0]]}
        return _traced(prepared, members, tally, first, setup_spans, extra)

    processes = []
    for _ in range(PROCESSES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(seed)],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"solve-large process exited {done.returncode}: {done.stderr[-2000:]}")
        processes.append(json.loads(done.stdout.splitlines()[-1]))

    timed = [op for process in processes for op in process["ops"]]
    for process in processes:
        tally.check(process["setup_ok"], "a set-up solve failed its checks")
        for (kind, _, _, _), ok in zip(process["ops"], process["ok"]):
            tally.record(ok, f"{kind} answer failed its checks")
        tally.reasons.extend(process["reasons"][: max(0, 20 - len(tally.reasons))])
    tally.check(
        all(process["payloads"] == processes[0]["payloads"] for process in processes),
        "solves in different processes returned different payloads",
    )

    kinds = ("dcsad", "dcsga")
    setups = [process["setup"] for process in processes]
    paced = {k: [pacer.paced(s, e) for kind, s, e, _ in timed if kind == k] for k in kinds}
    busy = sum(paced["dcsad"]) + sum(paced["dcsga"])
    extra = {
        "n": pb_inputs.LARGE_N,
        "gd_edges": processes[0]["gd_edges"],
        "ops": len(timed),
        "setups_s": [end - start for start, end, _ in setups],
        "setups_cpu_s": [cpu for _, _, cpu in setups],
        "process_vm_hwm_mb": [process["vm_hwm_mb"] for process in processes],
        "latencies_s": {k: [e - s for kind, s, e, _ in timed if kind == k] for k in kinds},
        "paced_latencies_s": paced,
        "cpu_latencies_s": {k: [c for kind, _, _, c in timed if kind == k] for k in kinds},
    }
    return {
        "setup_s": (median(pacer.paced(s, e) for s, e, _ in setups), len(setups)),
        "peak_rss_mb": (max(extra["process_vm_hwm_mb"]), len(processes)),
        "dcsad_s": (median(paced["dcsad"]), len(paced["dcsad"])),
        "dcsga_s": (median(paced["dcsga"]), len(paced["dcsga"])),
        "req_per_s": (len(timed) / busy, len(timed)),
        # no event stream here: every request counts as one event
        "events_per_s": (len(timed) / busy, len(timed)),
        # too few solves for percentiles of a two-class mix: the
        # faster class (DCSGA) stands in for p50, the slower for p99
        "req_p50_ms": (1000 * median(paced["dcsga"]), len(paced["dcsga"])),
        "req_p99_ms": (1000 * median(paced["dcsad"]), len(paced["dcsad"])),
    }, extra


def _traced(prepared: Any, members: set, tally: Tally, first: Dict[str, str], setup_spans: Spans, extra: Dict[str, Any]) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """Each op of OPS twice, untraced then traced, on one prepared pair.

    Adjacent pairs keep host drift out of ``obs.trace.overhead_pct``;
    the per-layer metrics come from the traced solves.
    """
    spans = Spans()
    inits: List[int] = []
    ratios: List[float] = []
    counts = {"dcsad": 0, "dcsga": 0}
    for kind in OPS:
        plain, _, _, cpu = _solve(kind, prepared)
        with ExitStack() as stack:
            _instrument_solve(spans, stack, prepared, inits)
            with spans.span("engine.solve"):
                traced, _, _, traced_cpu = _solve(kind, prepared)
        ratios.append(traced_cpu / cpu)
        counts[traced.kind] += 1
        for result in (plain, traced):
            tally.record(_check(result, members, tally, first), f"{result.kind} answer failed its checks")
    table = spans.self_times()
    setup_table = setup_spans.self_times()
    n_ad, n_ga = counts["dcsad"], counts["dcsga"]

    def per(name: str, count: int, column: str = "self_s") -> float:
        return table.get(name, {}).get(column, 0.0) / count

    seacd_total = table.get("new_sea", {}).get("total_s", 0.0)
    layers = {
        "core.difference.assemble_s": setup_table.get("assemble_difference", {}).get("self_s", 0.0),
        "engine.prepare.fingerprint_s": setup_table.get("PreparedGraph.fingerprint", {}).get("self_s", 0.0),
        "engine.prepare.gd_plus_s": setup_table.get("PreparedGraph.gd_plus", {}).get("self_s", 0.0),
        "engine.prepare.csr_s": sum(setup_table.get(name, {}).get("self_s", 0.0) for name in ("PreparedGraph.csr", "PreparedGraph.csr_plus")),
        "peeling.peel_gd_s": per("greedy_peel.gd", n_ad, "total_s"),
        "peeling.peel_gd_plus_s": per("greedy_peel.gd_plus", n_ad, "total_s"),
        "core.dcsad.self_s": per("dcs_greedy", n_ad),
        "core.initialization.plan_s": per("smart_initialization_plan", n_ga, "total_s"),
        "core.newsea.seacd_s": seacd_total / n_ga,
        "core.newsea.inits": median(inits),
        "core.newsea.ms_per_init": 1000 * seacd_total / max(1, sum(inits)),
        "core.kkt.check_s": per("is_kkt_point", n_ga, "total_s"),
        "engine.envelope.self_s": per("engine.solve", n_ad + n_ga),
        "obs.trace.overhead_pct": 100 * (median(ratios) - 1),
    }
    extra["self_times"] = table
    extra["setup_self_times"] = setup_table
    extra["spans"] = setup_spans.records + spans.records
    return {name: (value, n_ad + n_ga) for name, value in layers.items()}, extra


def _wrap_property(spans: Spans, stack: ExitStack, cls: Any, attr: str) -> None:
    original = cls.__dict__[attr]

    def getter(self: Any) -> Any:
        with spans.span(f"{cls.__name__}.{attr}"):
            return original.fget(self)

    setattr(cls, attr, property(getter))
    stack.callback(setattr, cls, attr, original)


def _instrument_setup(spans: Spans, stack: ExitStack) -> None:
    import repro.core.difference as difference
    from repro.engine.prepared import PreparedGraph

    stack.callback(spans.wrap(difference, "assemble_difference", "assemble_difference"))
    for attr in ("fingerprint", "gd_plus"):
        _wrap_property(spans, stack, PreparedGraph, attr)
    for attr in ("csr", "csr_plus"):
        stack.callback(spans.wrap(PreparedGraph, attr, f"PreparedGraph.{attr}"))


def _instrument_solve(spans: Spans, stack: ExitStack, prepared: Any, inits: List[int]) -> None:
    """Span every public call the envelope makes into a layer; append
    each DCSGA's SEACD run count to *inits*."""
    import repro.core.dcsad as dcsad
    import repro.core.kkt as kkt
    import repro.core.newsea as newsea
    from repro.core.initialization import smart_initialization_plan

    stack.callback(spans.wrap(dcsad, "dcs_greedy", "dcs_greedy"))
    stack.callback(spans.wrap(kkt, "is_kkt_point", "is_kkt_point"))

    peel = dcsad.greedy_peel

    def traced_peel(graph: Any, *args: Any, **kwargs: Any) -> Any:
        side = "gd" if graph is prepared.gd else "gd_plus"
        with spans.span(f"greedy_peel.{side}"):
            return peel(graph, *args, **kwargs)

    dcsad.greedy_peel = traced_peel
    stack.callback(setattr, dcsad, "greedy_peel", peel)

    new_sea = newsea.new_sea

    def traced_new_sea(gd_plus: Any, *args: Any, backend: str = "python", adjacency: Any = None, **kwargs: Any) -> Any:
        with spans.span("smart_initialization_plan"):
            plan = smart_initialization_plan(gd_plus, backend=backend, adjacency=adjacency)
        with spans.span("new_sea"):
            result = new_sea(gd_plus, *args, backend=backend, adjacency=adjacency, plan=plan, **kwargs)
        inits.append(result.initializations)
        return result

    newsea.new_sea = traced_new_sea
    stack.callback(setattr, newsea, "new_sea", new_sea)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    print(json.dumps(_process(int(sys.argv[1]))))
