"""Drive a live stream session on the DCS service, end to end.

Where ``examples/service_client.py`` tours the request/response routes
(solve, batch, replay), this tour exercises the *session* layer: a
resident, stateful stream engine per tenant that survives across
requests.  The client

1. creates a session over an explicit vertex universe,
2. appends event batches — each POST returns the alerts those steps
   fired,
3. polls ``/alerts`` with a cursor (and once with ``wait=`` long-poll),
4. reads the session's ranking and the ``/metrics`` sessions block,
5. closes the session and shows that its id is gone (404).

Two modes, same as the service client:

* **self-contained demo** (default): spawns ``repro serve`` on an
  ephemeral port and shuts it down afterwards.
* **client mode** (``--url http://host:port``): the same tour against a
  server you already started::

      python -m repro serve --port 8765 &
      python examples/stream_session_client.py --url http://127.0.0.1:8765

Run with::

    python examples/stream_session_client.py
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


#: Collaboration burst: (ada, bob) spikes at t=5..6 over a quiet base.
def batches():
    quiet = [
        {"t": t, "u": "ada", "v": "bob", "w": 1.0} for t in range(5)
    ] + [{"t": t, "u": "bob", "v": "cy", "w": 1.0} for t in range(5)]
    spike = [
        {"t": 5, "u": "ada", "v": "bob", "w": 6.0},
        {"t": 5, "u": "ada", "v": "cy", "w": 4.0},
        {"t": 6, "u": "ada", "v": "bob", "w": 6.0},
    ]
    calm = [{"t": 8, "u": "bob", "v": "cy", "w": 1.0}]
    return [sorted(quiet, key=lambda r: r["t"]), spike, calm]


def tour(base: str) -> None:
    status, health = call(base, "GET", "/healthz")
    print(f"healthz          -> {status} sessions={health['sessions']}")

    status, created = call(base, "POST", "/v1/stream/sessions", {
        "universe": ["ada", "bob", "cy", "dee"],
        "window": 3,
        "threshold": 2.0,
        "k": 2,
    })
    sid = created["session"]
    print(f"create           -> {status} session={sid}")

    cursor = 0
    for index, events in enumerate(batches()):
        body = {"events": events}
        if index == len(batches()) - 1:
            body["advance_to"] = 8  # close the steps behind the calm
        status, reply = call(
            base, "POST", f"/v1/stream/sessions/{sid}/events", body
        )
        print(
            f"batch {index}          -> {status} step={reply['step']} "
            f"alerts={[a['step'] for a in reply['alerts']]}"
        )

    status, page = call(
        base, "GET", f"/v1/stream/sessions/{sid}/alerts?cursor={cursor}"
    )
    for alert in page["alerts"]:
        print(
            f"alert            -> step={alert['step']} "
            f"score={alert['score']:.2f} subset={alert['subset']}"
        )
    cursor = page["cursor"]
    # Nothing new: a long-poll waits briefly, then returns empty.
    status, page = call(
        base, "GET",
        f"/v1/stream/sessions/{sid}/alerts?cursor={cursor}&wait=0.2",
    )
    print(f"long-poll        -> {status} new={len(page['alerts'])}")

    status, info = call(base, "GET", f"/v1/stream/sessions/{sid}")
    print(
        f"info             -> {status} step={info['step']} "
        f"events={info['events']} topk={info.get('topk', [])}"
    )

    status, metrics = call(base, "GET", "/metrics")
    block = metrics["sessions"]
    print(
        f"metrics          -> {status} active={block['active']} "
        f"events={block['events']} alerts={block['alerts']} "
        f"charged_cells={block['charged_cells']}"
    )

    status, closed = call(base, "DELETE", f"/v1/stream/sessions/{sid}")
    final = closed["final"]
    print(
        f"close            -> {status} events={final['events']} "
        f"alerts={final['alerts']}"
    )
    status, _ = call(base, "GET", f"/v1/stream/sessions/{sid}")
    print(f"after close      -> {status} (expected 404)")


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
