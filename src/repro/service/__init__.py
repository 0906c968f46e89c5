"""Long-running DCS query service — the resident serving surface.

Every earlier delivery layer pays full process startup per invocation:
``repro dcsad`` imports the library, reads its input, prepares the
graph, solves, exits.  ``repro/service/`` keeps all of that *resident*:
a stdlib-only asyncio HTTP/JSON server whose warm state — named
:class:`~repro.engine.prepared.PreparedGraph` preparations in an LRU
(:class:`~repro.service.registry.GraphRegistry`) and the
content-addressed :class:`~repro.batch.cache.ResultCache` — is shared
across every request, which is what makes interactive DCSAD/DCSGA
querying (the paper's mining-primitive framing) feasible at traffic.

Start it from the CLI (``repro serve --port 8765``) or embed it::

    from repro.service import ServiceApp

    app = ServiceApp(scale=0.25)
    status, body = app.request(
        "POST", "/v1/solve",
        {"graph": "DBLP/Weighted/Emerging", "kind": "dcsad"},
    )

The pieces:

* :mod:`~repro.service.app` — routes, admission control (one worker
  thread, a bounded count of waiting jobs, 429 on overflow,
  per-request deadlines), response envelopes;
* :mod:`~repro.service.registry` — named graphs -> warm preparations;
* :mod:`~repro.service.metrics` — counters and latency quantiles
  behind ``/metrics``;
* :mod:`~repro.service.http` — the minimal stdlib HTTP/1.1 shell.
"""

from repro.service.app import (
    ServiceApp,
    ServiceDeadlineError,
    ServiceOverloadedError,
)
from repro.service.http import HttpRequest, HttpResponse
from repro.service.metrics import LatencyWindow, ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.sessions import (
    SessionFailedError,
    SessionLimitError,
    SessionManager,
    StreamSession,
)

__all__ = [
    "GraphRegistry",
    "HttpRequest",
    "HttpResponse",
    "LatencyWindow",
    "ServiceApp",
    "ServiceDeadlineError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "SessionFailedError",
    "SessionLimitError",
    "SessionManager",
    "StreamSession",
]
