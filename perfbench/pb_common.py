"""Shared helpers: metric catalogue, statistics, pacing, spans, host facts.

Nothing here imports the program under test; the workload modules do
that, so this file (and its tests) stay cheap to import.
"""

from __future__ import annotations

import bisect
import importlib.util
import itertools
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Metric names may only use these characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics: (name, unit).  Every workload reports all of
#: them on an untraced run; see README.md for what each one measures on
#: each workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dcsad_s", "s"),
    ("dcsga_s", "s"),
    ("req_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
)

#: Solver phases the program reports in ``timings.phases``.
PHASES = (
    "prepare", "driver", "peel", "initialization_plan", "new_sea",
    "seacd", "shrink", "expand", "refine",
)

#: Per-layer metrics: (name, unit).  Every workload reports all of them
#: on a traced run; a layer the workload's traced run never reaches
#: reads 0.
PER_LAYER = (
    # solve-large
    ("core.difference.assemble_s", "s"),
    ("engine.prepare.fingerprint_s", "s"),
    ("engine.prepare.gd_plus_s", "s"),
    ("engine.prepare.csr_s", "s"),
    ("peeling.peel_gd_s", "s"),
    ("peeling.peel_gd_plus_s", "s"),
    ("core.dcsad.self_s", "s"),
    ("core.initialization.plan_s", "s"),
    ("core.newsea.seacd_s", "s"),
    ("core.newsea.inits", "count"),
    ("core.newsea.ms_per_init", "ms"),
    ("core.kkt.check_s", "s"),
    ("engine.envelope.self_s", "s"),
    # serve-mixed
    ("service.cluster.hop_ms", "ms"),
    ("service.app.hit_ms", "ms"),
    ("service.app.queue_wait_ms", "ms"),
    ("service.app.loop_lag_max_ms", "ms"),
    ("batch.executor.batch_ms", "ms"),
    ("core.solve.python_ms", "ms"),
    ("core.solve.sparse_ms", "ms"),
    ("service.registry.upload_ms", "ms"),
) + tuple((f"obs.phase.{phase}_s", "s") for phase in PHASES) + (
    ("batch.cache.hits", "count"),
    ("batch.cache.misses", "count"),
    ("service.registry.cold_builds", "count"),
    ("service.registry.shared_attaches", "count"),
    ("service.app.rejected", "count"),
    # stream-sessions
    ("service.sessions.write_ms", "ms"),
    ("stream.engine.step_ms", "ms"),
    ("service.sessions.poll_ms", "ms"),
    ("stream.engine.full_solves", "count"),
    ("stream.engine.cache_hits", "count"),
    ("service.sessions.alerts", "count"),
    # every workload
    ("failed_frac", "fraction"),
    ("obs.trace.overhead_pct", "%"),
)

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile; refuses a thin tail.

    Raises ``ValueError`` unless at least ``MIN_BEYOND`` samples lie
    beyond the returned rank, so a reported p99 is never one outlier.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median_ms(seconds: Sequence[float]) -> float:
    """Median of *seconds* in ms; 0 when the traced run saw none."""
    return 1000 * statistics.median(seconds) if seconds else 0.0


class Tally:
    """Attempted and failed ops of one run, and every failed check.

    ``record`` counts one op; ``check`` only notes a failed check (of a
    set-up step, say).  A run is correct when nothing failed at all.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: Any, reason: str) -> bool:
        if not ok:
            with self._lock:
                self.problems += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return bool(ok)

    def record(self, ok: Any, reason: str) -> bool:
        """One op: failed when *ok* is false (non-2xx, or a failed check)."""
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
        return self.check(ok, reason)

    @property
    def correct(self) -> bool:
        return self.problems == 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def http_ok(status: int) -> bool:
    """A response counts as an answered op only when it is 2xx."""
    return 200 <= status < 300


# ----------------------------------------------------------------------
# pacing: wall times at a fixed host speed
# ----------------------------------------------------------------------
#: CPU seconds the reference job of ``pb_pace.py`` takes at the nominal
#: pace (its median on a quiet 2-vCPU Xeon VM).
PACE_NOMINAL_S = 0.0022
#: samples within this many seconds of an interval pace it
PACE_WINDOW_S = 1.0
#: the fewest samples a factor is taken from
PACE_MIN_SAMPLES = 5


class Pacer:
    """Samples the host's pace beside a run, in a separate process.

    The host this benchmark was built on slows down in two ways that
    have nothing to do with the program.  The CPU itself runs up to
    1.6x slower for minutes at a time (a fixed loop's CPU time tracks
    its wall time), and the hypervisor steals up to 17% of the time the
    virtual CPUs want to run.  A wall time is therefore paced: times
    ``PACE_NOMINAL_S / cost``, the reference job's nominal over its
    median cost around the interval, and times ``1 - steal share``, the
    stolen part of the busy time around it.  The sampler is a process
    of its own, so it never holds the interpreter lock of the run it
    paces; it costs about 2% of one CPU.
    """

    def __init__(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self._path = os.path.join(out_dir, f"pace-{os.getpid()}.txt")
        self._sink = open(self._path, "w", encoding="ascii")
        self._reader = open(self._path, encoding="ascii")
        self._partial = ""
        self.times: List[float] = []
        self.costs: List[float] = []
        self.busy: List[int] = []
        self.steal: List[int] = []
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "pb_pace.py")],
            stdout=self._sink,
            stderr=subprocess.DEVNULL,
        )

    def _read(self) -> None:
        if self._reader.closed:
            return
        text = self._partial + self._reader.read()
        lines = text.split("\n")
        self._partial = lines.pop()
        for line in lines:
            stamp, cost, busy, steal = line.split()
            self.times.append(float(stamp))
            self.costs.append(float(cost))
            self.busy.append(int(busy))
            self.steal.append(int(steal))

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the sampler has written its first samples."""
        deadline = time.monotonic() + timeout
        while len(self.times) < 2:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the pace sampler wrote no samples")
            time.sleep(0.05)
            self._read()

    def factor(self, start: float, end: float) -> float:
        """Pace factor around [start, end]: ``PACE_NOMINAL_S`` over the
        median job cost, times the share of busy time not stolen."""
        self._read()
        lo, hi = pace_window(self.times, start, end)
        speed = PACE_NOMINAL_S / statistics.median(self.costs[lo:hi])
        steal = self.steal[hi - 1] - self.steal[lo]
        busy = self.busy[hi - 1] - self.busy[lo]
        return speed * (1.0 - steal / (steal + busy) if steal + busy > 0 else 1.0)

    def paced(self, start: float, end: float) -> float:
        """The wall interval [start, end] in seconds at the nominal pace,
        paced slice by slice (slices of at most ``PACE_WINDOW_S``)."""
        slices = max(1, math.ceil((end - start) / PACE_WINDOW_S))
        step = (end - start) / slices
        return sum(
            step * self.factor(start + i * step, start + (i + 1) * step)
            for i in range(slices)
        )

    def summary(self) -> Dict[str, Any]:
        self._read()
        costs = self.costs or [PACE_NOMINAL_S]
        steal = self.steal[-1] - self.steal[0] if self.steal else 0
        busy = self.busy[-1] - self.busy[0] if self.busy else 0
        return {
            "samples": len(self.costs),
            "cost_median_s": statistics.median(costs),
            "cost_min_s": min(costs),
            "cost_max_s": max(costs),
            "steal_share": steal / (steal + busy) if steal + busy else 0.0,
        }

    def stop(self) -> None:
        """Terminate the sampler and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._read()
        self._sink.close()
        self._reader.close()
        try:
            os.remove(self._path)
        except OSError:
            pass


def pace_window(times: Sequence[float], start: float, end: float) -> Tuple[int, int]:
    """Index range ``[lo, hi)`` of the samples within ``PACE_WINDOW_S``
    of [start, end].

    Widens to the ``PACE_MIN_SAMPLES`` samples nearest the interval when
    the window holds fewer.  *times* must be sorted.
    """
    if not times:
        raise ValueError("no pace samples")
    lo = bisect.bisect_left(times, start - PACE_WINDOW_S)
    hi = bisect.bisect_right(times, end + PACE_WINDOW_S)
    while hi - lo < min(PACE_MIN_SAMPLES, len(times)):
        before = start - times[lo - 1] if lo > 0 else math.inf
        after = times[hi] - end if hi < len(times) else math.inf
        if before <= after:
            lo -= 1
        else:
            hi += 1
    return lo, hi


# ----------------------------------------------------------------------
# spans, recorded from outside the program
# ----------------------------------------------------------------------
class Spans:
    """In-memory spans: name, start, end, parent and request id."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request_id": request_id
            or (parent["request_id"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.records.append(record)

    def wrap(self, owner: Any, attr: str, name: str) -> Callable[[], None]:
        """Replace ``owner.attr`` with a spanned call; returns the undo."""
        original = getattr(owner, attr)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        return lambda: setattr(owner, attr, original)

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds (total minus
        the part of the interval the span's children cover)."""
        child_time: Dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = (
                    child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
                )
        table: Dict[str, Dict[str, float]] = {}
        for r in self.records:
            row = table.setdefault(r["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = r["end"] - r["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(r["id"], 0.0)
        return table


# ----------------------------------------------------------------------
# host facts and memory
# ----------------------------------------------------------------------
def _cpu_steal() -> Optional[int]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop; read beside the metrics, never
    used to scale them."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def _version(module: str) -> Optional[str]:
    if importlib.util.find_spec(module) is None:
        return None
    return getattr(__import__(module), "__version__", "?")


class HostFacts:
    """The facts a record is read with, taken at the start and end."""

    def __init__(self, workload: str, seed: int, hash_seed: str) -> None:
        self.facts: Dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "pythonhashseed": hash_seed,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "numba": importlib.util.find_spec("numba") is not None,
            "loadavg_start": os.getloadavg(),
            "calibration_start_s": calibration_seconds(),
        }
        self._steal = _cpu_steal()

    def finish(self) -> Dict[str, Any]:
        steal = _cpu_steal()
        self.facts["loadavg_end"] = os.getloadavg()
        self.facts["steal_ticks_delta"] = (
            None if steal is None or self._steal is None else steal - self._steal
        )
        self.facts["calibration_end_s"] = calibration_seconds()
        return self.facts


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def process_tree(pid: int) -> List[int]:
    """*pid* and all its live descendants."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree
