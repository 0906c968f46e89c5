"""Talk to the long-running DCS query service, end to end.

Two modes:

* **self-contained demo** (default): starts ``repro serve`` as a
  subprocess on an ephemeral port, uploads a graph pair, runs the full
  route tour — solve, cached re-solve, top-k, a batch submission,
  ``/metrics`` — and shuts the server down.  Stream sessions have their
  own tour in ``examples/stream_session_client.py``.
* **client mode** (``--url http://host:port``): the same tour against a
  server you already started (skipping the subprocess), e.g.::

      python -m repro serve --port 8765 &
      python examples/service_client.py --url http://127.0.0.1:8765

Run with::

    python examples/service_client.py
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import urllib.error
import urllib.request


def call(base: str, method: str, path: str, body=None, timeout=120):
    """One JSON round-trip; returns (status, payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"{base}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


#: A small collaboration network: ada-bob-cy tighten, cy-dee weakens.
G1 = "ada bob 1.0\nbob cy 1.0\ncy dee 2.0\neve\n"
G2 = (
    "ada bob 3.0\nbob cy 3.0\nada cy 2.0\n"
    "cy dee 1.0\ndee eve 1.0\n"
)
def tour(base: str) -> None:
    status, health = call(base, "GET", "/healthz")
    print(f"healthz          -> {status} {health}")

    status, upload = call(base, "POST", "/v1/graphs", {
        "name": "collab", "g1": G1, "g2": G2,
    })
    print(f"upload           -> {status} fingerprint={upload['fingerprint'][:12]}…")

    solve = {"graph": "collab", "kind": "dcsad"}
    status, body = call(base, "POST", "/v1/solve", solve)
    print(
        f"dcsad            -> {status} vertices={body['result']['vertices']} "
        f"density={body['result']['density']}"
    )
    status, body = call(base, "POST", "/v1/solve", solve)
    print(f"dcsad again      -> {status} cached={body['cached']}")

    status, body = call(base, "POST", "/v1/solve", {
        "graph": "collab", "kind": "dcsga", "k": 2,
    })
    ranked = body["result"]["detail"]["results"]
    print(f"dcsga top-2      -> {status} answers={len(ranked)}")

    status, body = call(base, "POST", "/v1/batch", {"queries": [
        {"kind": "dcsad", "graph": "collab"},
        {"kind": "dcsga", "graph": "collab"},
        {"kind": "dcsad", "graph": "collab", "k": 2},
    ]})
    print(
        f"batch x3         -> {status} "
        f"statuses={[r['status'] for r in body['results']]} "
        f"cache_hits={body['stats']['cache_hits']}"
    )

    status, _ = call(base, "POST", "/v1/solve", {"graph": "ghost"})
    print(f"unknown graph    -> {status} (expected 404)")

    status, metrics = call(base, "GET", "/metrics")
    print(
        f"metrics          -> {status} requests={metrics['requests']['total']} "
        f"cache_hit_rate={metrics['cache']['hit_rate']:.2f} "
        f"warm_prepared={metrics['warm']['prepared']} "
        f"p95={metrics['latency']['p95_seconds'] * 1000:.1f}ms"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--url", default=None,
        help="an already-running server (default: spawn one)",
    )
    args = parser.parse_args()
    if args.url:
        tour(args.url.rstrip("/"))
        return 0
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", "0.0"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:\d+", banner)
        if not match:
            raise SystemExit(f"server did not start: {banner!r}")
        print(f"spawned {match.group(0)}")
        tour(match.group(0))
    finally:
        server.terminate()
        server.wait(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
