"""``repro serve`` subprocesses and a minimal HTTP/JSON client."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from pb_common import http_ok, process_tree, vm_hwm_mb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Server:
    """One ``repro serve --port 0`` process (plus its workers)."""

    def __init__(self, workers: int = 1) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=ROOT,
        )
        banner = self.proc.stdout.readline() if self.proc.stdout else ""
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve printed no listening banner: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
        request_id: Optional[str] = None,
        timeout: float = 120.0,
    ) -> Tuple[int, Any, float]:
        """``(status, parsed body, seconds)``; status 0 on a transport error."""
        headers = {"Content-Type": "application/json"}
        if request_id:
            headers["X-Request-Id"] = request_id
        data = None if body is None else json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            return 0, {"error": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - start
        finally:
            connection.close()
        seconds = time.perf_counter() - start
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = {"raw": raw[:200].decode("utf-8", "replace")}
        return status, parsed, seconds

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its worker processes."""
        total = 0.0
        for pid in process_tree(self.proc.pid):
            try:
                total += vm_hwm_mb(pid)
            except (OSError, ValueError):
                continue
        return total

    def stop(self) -> None:
        """SIGTERM, then wait; SIGKILL the whole tree if it hangs."""
        if self.proc.poll() is None:
            tree = process_tree(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in tree:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.wait(timeout=10)
            _wait_gone(tree[1:])
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _wait_gone(pids: List[int], timeout: float = 10.0) -> None:
    """Wait until the server's children have exited too."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                    if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.05)


def warm_program() -> None:
    """Discarded warm-up: compile and page in the server's modules in a
    throwaway process, so neither lands in a measured set-up."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.service.app, repro.service.cluster, repro.stream.engine, repro.datasets.registry"],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
    )


def metrics_counters(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The ``/metrics`` counters a run reads, summed over workers, and
    each worker's event-loop lag (latest probe, lifetime maximum).

    The cluster router answers ``/metrics`` from its workers' snapshots
    and has no lag probe of its own.
    """
    workers = snapshot.get("workers")
    parts = workers if isinstance(workers, list) else [snapshot]
    out: Dict[str, Any] = {"cache_hits": 0.0, "cache_misses": 0.0, "cold_builds": 0.0, "shared_attaches": 0.0, "rejected": 0.0}
    for part in parts:
        out["cache_hits"] += part["cache"]["hits"]
        out["cache_misses"] += part["cache"]["misses"]
        out["cold_builds"] += part["warm"]["cold_builds"]
        out["shared_attaches"] += part["warm"]["shared_attaches"]
        out["rejected"] += part["queries"]["rejected"]
    out["loop_lag_s"] = [part["loop"]["lag_seconds"] or 0.0 for part in parts]
    out["loop_lag_max_s"] = [part["loop"]["lag_max_seconds"] or 0.0 for part in parts]
    return out


class LagProbe:
    """Reads ``/metrics`` between ops, at most every ``interval`` s.

    The program keeps only the latest lag probe and the lifetime
    maximum, which on a fresh server includes boot and set-up.  The
    worst lag of a phase is the lifetime maximum when the phase raised
    it, and otherwise the worst latest-probe value polled here.
    """

    def __init__(self, server: Server, interval: float = 0.25) -> None:
        self.server = server
        self.interval = interval
        self.samples: List[List[float]] = []
        self._next = 0.0
        self._lock = threading.Lock()
        self.before = metrics_counters(server.request("GET", "/metrics")[1])

    def __call__(self) -> None:
        now = time.perf_counter()
        with self._lock:
            if now < self._next:
                return
            self._next = now + self.interval
        status, body, _ = self.server.request("GET", "/metrics")
        if http_ok(status):
            self.samples.append(metrics_counters(body)["loop_lag_s"])

    def finish(self) -> Tuple[Dict[str, Any], float, Dict[str, Any]]:
        """``(after counters, worst lag of the phase in s, record)``."""
        after = metrics_counters(self.server.request("GET", "/metrics")[1])
        worst, raised = 0.0, []
        for w, (old, new) in enumerate(zip(self.before["loop_lag_max_s"], after["loop_lag_max_s"])):
            polled = max((sample[w] for sample in self.samples if w < len(sample)), default=0.0)
            raised.append(new > old)
            worst = max(worst, new if new > old else polled)
        record = {
            "before_max_s": self.before["loop_lag_max_s"],
            "after_max_s": after["loop_lag_max_s"],
            "raised_in_phase": raised,
            "polls": len(self.samples),
        }
        return after, worst, record
