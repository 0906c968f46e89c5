"""repro.engine — the unified solver engine seam.

Three pieces, consumed by every delivery layer (CLI, batch service,
streaming engine):

* the **backend registry** (:mod:`repro.engine.registry`): solvers
  dispatch through :func:`resolve_backend` capability lookups instead
  of ``if backend == ...`` ladders; new backends plug in with
  :func:`register_backend`.
* the **prepared-graph context** (:mod:`repro.engine.prepared`):
  :class:`PreparedGraph` owns a difference graph's positive part,
  frozen CSR adjacencies and content fingerprint, built lazily exactly
  once and shared across every query on that graph.
* the **result envelope** (:mod:`repro.engine.envelope`):
  :class:`SolveRequest` / :class:`SolveResult` with one canonical JSON
  layout (measure, params, vertices, density, Theorem 2 ``beta``, KKT
  status) plus out-of-band timings and provenance.

Quickstart::

    from repro.engine import PreparedGraph, SolveRequest, solve

    prepared = PreparedGraph(gd)
    report = solve(SolveRequest(measure="average_degree"), prepared)
    report.vertices, report.density, report.beta
"""

from repro.engine import backends as _backends  # noqa: F401  (registers builtins)
from repro.engine.envelope import (
    KIND_OF_MEASURE,
    MEASURE_OF_KIND,
    MEASURES,
    SolveRequest,
    SolveResult,
    solve,
)
from repro.engine.prepared import PreparedGraph
from repro.engine.registry import (
    Backend,
    BackendLike,
    PeelBackend,
    SolverBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)

__all__ = [
    "Backend",
    "BackendLike",
    "PeelBackend",
    "SolverBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
    "PreparedGraph",
    "SolveRequest",
    "SolveResult",
    "solve",
    "MEASURES",
    "KIND_OF_MEASURE",
    "MEASURE_OF_KIND",
]
