"""SEACD — Shrink-and-Expansion with Coordinate Descent (Algorithm 3).

The DCSGA solver alternates:

1. **Shrink**: drive the iterate to a local KKT point on its current
   support with 2-coordinate descent
   (:func:`repro.core.coordinate_descent.coordinate_descent`), using the
   *correct* gradient-gap convergence condition;
2. **Expansion**: add the vertices whose gradient exceeds
   ``lambda = 2 f(x)`` and step toward them
   (:func:`repro.core.expansion.expansion_step`).

The loop ends when no vertex qualifies for expansion, i.e. the iterate
satisfies the global KKT conditions (Eq. 7); Theorem 4 guarantees
convergence.  Statistics are recorded so the benchmark harness can
reproduce Table VII (expansion-error counts are always zero for SEACD —
asserted by the test suite — unlike the loose-condition SEA baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.coordinate_descent import coordinate_descent
from repro.core.expansion import expansion_step
from repro.engine.registry import BackendLike, resolve_backend
from repro.exceptions import VertexNotFound
from repro.graph.graph import Graph, Vertex


@dataclass
class SEACDStats:
    """Counters for one SEACD run."""

    shrink_calls: int = 0
    shrink_iterations: int = 0
    expansions: int = 0
    expansion_errors: int = 0
    objective_trace: List[float] = field(default_factory=list)


@dataclass
class SEACDResult:
    """A KKT point of ``max f(x)`` and its bookkeeping."""

    x: Dict[Vertex, float]
    objective: float
    converged: bool
    stats: SEACDStats


def seacd(
    graph: Graph,
    x0: Dict[Vertex, float],
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    max_cd_iterations: int = 100_000,
    backend: BackendLike = "python",
) -> SEACDResult:
    """Run Algorithm 3 from the initial embedding *x0*.

    Parameters
    ----------
    graph:
        The graph to maximise affinity on.  The DCSGA pipeline passes
        ``GD+`` (Theorem 5 lets it ignore negative edges as long as the
        Refinement step runs afterwards); the algorithm itself also
        accepts signed graphs.
    x0:
        Starting embedding, typically ``{u: 1.0}``.
    tol_scale:
        Shrink-stage precision: converged when the gradient gap is below
        ``tol_scale / |S|`` (paper: ``1e-2 * 1/|S|``).
    max_expansions / max_cd_iterations:
        Safety caps; hitting one returns ``converged=False``.
    backend:
        A registered backend name (``"python"`` is the reference
        dict-of-dicts implementation, ``"sparse"`` the vectorised CSR
        kernels) or a :class:`~repro.engine.registry.SolverBackend`
        instance; dispatched through the engine registry.
    """
    return resolve_backend(backend).seacd(
        graph,
        x0,
        tol_scale=tol_scale,
        max_expansions=max_expansions,
        max_cd_iterations=max_cd_iterations,
    )


def _seacd_python(
    graph: Graph,
    x0: Dict[Vertex, float],
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    max_cd_iterations: int = 100_000,
) -> SEACDResult:
    """The reference implementation behind the ``python`` backend."""
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    stats = SEACDStats()
    x = {u: w for u, w in x0.items() if w > 0.0}
    if not x:
        raise ValueError("initial embedding has empty support")

    converged = False
    objective = 0.0
    while stats.expansions < max_expansions:
        support = set(x)
        # Explicit stage spans: this loop calls the CD / expansion
        # kernels directly, so the registry-level wrapper never sees
        # the Algorithm 3 shrink/expand alternation.
        with tracer.span("seacd.shrink", support=len(support)):
            shrink = coordinate_descent(
                graph,
                x,
                subset=support,
                tol=tol_scale / len(support),
                max_iterations=max_cd_iterations,
            )
        stats.shrink_calls += 1
        stats.shrink_iterations += shrink.iterations
        x = shrink.x
        objective = shrink.objective
        stats.objective_trace.append(objective)

        with tracer.span("seacd.expand"):
            step = expansion_step(graph, x, objective=objective)
        if not step.expanded:
            converged = True
            break
        if step.decreased:
            stats.expansion_errors += 1
        x = step.x
        objective = step.objective_after
        stats.expansions += 1

    return SEACDResult(
        x=x,
        objective=objective,
        converged=converged,
        stats=stats,
    )


def seacd_from_vertex(
    graph: Graph,
    vertex: Vertex,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    backend: BackendLike = "python",
) -> SEACDResult:
    """Convenience: SEACD initialised at the indicator ``e_vertex``."""
    if not graph.has_vertex(vertex):
        raise VertexNotFound(vertex)
    return seacd(
        graph,
        {vertex: 1.0},
        tol_scale=tol_scale,
        max_expansions=max_expansions,
        backend=backend,
    )
