"""NewSEA — the full DCSGA pipeline (Algorithm 5), plus all-init drivers.

``new_sea`` runs the paper's Algorithm 5: compute the smart-initialisation
bounds ``mu_u``, try vertices in decreasing ``mu_u`` order, run SEACD then
Refinement from each, and stop as soon as the next bound cannot beat the
best objective found.  It is NewSEA's only implementation: every
backend supplies just the plan (``initialization_plan``) and the
per-vertex closure (``vertex_solver``), and the walk lives here.

``solve_all_initializations`` is the *SEACD+Refine* configuration
(initialise from **every** vertex), which the paper uses both as the
no-heuristic ablation in Table VII and as the multi-solution miner behind
Table V (top-k topics) and Fig. 3 (clique census).  It accepts a custom
per-vertex solver so the original-SEA baseline
(:mod:`repro.affinity.sea`) can reuse the same driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.initialization import InitializationPlan
from repro.core.refinement import refine
from repro.core.seacd import seacd
from repro.engine.registry import BackendLike, resolve_backend
from repro.exceptions import InputMismatchError
from repro.graph.cliques import is_clique, remove_subsumed_cliques
from repro.graph.graph import Graph, Vertex

#: A per-vertex solver: ``(graph, vertex) -> (embedding, objective, errors)``
#: where *errors* counts expansion errors observed during the run.
VertexSolver = Callable[[Graph, Vertex], Tuple[Dict[Vertex, float], float, int]]


@dataclass
class DCSGAResult:
    """Best affinity-contrast solution found by a DCSGA pipeline.

    ``objective`` is ``f(x) = x^T D x`` evaluated on the graph the solver
    ran on (``GD+``; equal to the value in ``GD`` whenever the support is
    a positive clique, which Refinement guarantees).
    """

    x: Dict[Vertex, float]
    objective: float
    support: Set[Vertex]
    is_positive_clique: bool
    initializations: int
    expansion_errors: int = 0
    #: `mu` bound of the first skipped vertex (None if none skipped)
    pruned_at_bound: Optional[float] = None


@dataclass
class AllInitsResult:
    """Every deduplicated solution from an all-vertex initialisation run."""

    best: DCSGAResult
    #: deduplicated (support, representative embedding, objective),
    #: sorted by decreasing objective
    solutions: List[Tuple[Set[Vertex], Dict[Vertex, float], float]]
    initializations: int
    expansion_errors: int


def _require_positive(gd_plus: Graph) -> None:
    """Reject signed input to a dict-graph DCSGA solve.

    The CSR backends make the same check on the frozen adjacency
    (:meth:`~repro.graph.sparse.CSRAdjacency.for_graph` with
    ``positive=True``) and raise the same error.
    """
    for _, _, weight in gd_plus.edges():
        if weight <= 0:
            raise InputMismatchError(
                "graph has nonpositive weights, but this solver expects GD+ "
                "(positive weights only); call positive_part() on the "
                "signed difference graph first"
            )


def _default_solver(tol_scale: float, max_expansions: int) -> VertexSolver:
    def solve(graph: Graph, vertex: Vertex) -> Tuple[Dict[Vertex, float], float, int]:
        result = seacd(
            graph,
            {vertex: 1.0},
            tol_scale=tol_scale,
            max_expansions=max_expansions,
        )
        refined = refine(graph, result.x, tol_scale=tol_scale)
        return refined.x, refined.objective, result.stats.expansion_errors

    return solve


def _check_tol_scale(tol_scale: float) -> None:
    """Reject a shrink precision that is not a finite positive number.

    A negative ``tol_scale`` lets coordinate descent leave the simplex
    and zero misses the KKT point: both answer wrongly instead of
    failing.
    """
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(
            f"tol_scale must be a finite positive number, got {tol_scale!r}"
        )


def new_sea(
    gd_plus: Graph,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    plan: Optional[InitializationPlan] = None,
    backend: BackendLike = "python",
    adjacency=None,
) -> DCSGAResult:
    """Algorithm 5 on the positive part ``GD+`` of a difference graph.

    Build ``gd_plus`` with :func:`repro.core.difference.positive_part`
    (or ``Graph.positive_part()``); Theorem 5 justifies discarding
    negative edges because the Refinement step always lands on a positive
    clique, on which ``f_{D+} = f_D``.

    *backend* is resolved through the engine registry and supplies the
    two parts of the walk: the ``mu_u`` trial order
    (``initialization_plan``) and the per-vertex SEACD + Refinement
    closure (``vertex_solver``).  This function walks the plan itself,
    so every backend runs the same early-stop rule.  On a CSR-capable
    backend (``"sparse"``, ``"native"``) ``GD+`` is frozen once and that
    one :class:`~repro.graph.sparse.CSRAdjacency` is shared by the plan
    and every initialisation; *adjacency* supplies it prebuilt (the
    registry rejects it on other backends), so callers running many
    queries on one graph — the batch layer, through
    :class:`~repro.engine.prepared.PreparedGraph` — skip the freeze and,
    since the plan is memoised on the adjacency, every plan after the
    first.  A caller's *plan* is read, never mutated.

    Signed input raises :class:`~repro.exceptions.InputMismatchError`
    (a ``ValueError``) on every backend: the python backend scans the
    dict graph, the CSR backends check the frozen adjacency's weights.
    A ``tol_scale`` that is not a finite positive number raises
    ``ValueError``.
    """
    from repro.obs.trace import current_tracer

    if gd_plus.num_vertices == 0:
        raise ValueError("graph has no vertices")
    _check_tol_scale(tol_scale)
    solver_backend = resolve_backend(backend)
    solver_backend.check_adjacency(adjacency)
    # One span around the walk: the CSR solver's runs open no spans of
    # their own, so without it their time would land in the caller's.
    with current_tracer().span("new_sea"):
        if adjacency is None and solver_backend.supports_shared_adjacency:
            from repro.graph.sparse import CSRAdjacency

            adjacency = CSRAdjacency.from_graph(gd_plus)
        # The solver first: building it runs the backend's GD+ positivity
        # check, which must fail before a plan is built on signed input.
        solver = solver_backend.vertex_solver(
            gd_plus,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            adjacency=adjacency,
        )
        if plan is None:
            plan = solver_backend.initialization_plan(
                gd_plus, adjacency=adjacency
            )

        best_x: Optional[Dict[Vertex, float]] = None
        best_objective = 0.0
        initializations = 0
        errors = 0
        pruned_at: Optional[float] = None
        for vertex in plan.order:
            bound = plan.mu[vertex]
            if bound <= best_objective:
                # Sorted descending: nothing later can beat the incumbent.
                pruned_at = bound
                break
            x, objective, run_errors = solver(gd_plus, vertex)
            errors += run_errors
            initializations += 1
            if objective > best_objective or best_x is None:
                best_x, best_objective = x, objective

        if best_x is None:
            # Edgeless GD+ (mu == 0 everywhere): a single vertex is optimal.
            vertex = min(gd_plus.vertices(), key=repr)
            best_x, best_objective = {vertex: 1.0}, 0.0

        return DCSGAResult(
            x=best_x,
            objective=best_objective,
            support={u for u, w in best_x.items() if w > 0.0},
            is_positive_clique=is_clique(gd_plus, best_x),
            initializations=initializations,
            expansion_errors=errors,
            pruned_at_bound=pruned_at,
        )


def solve_all_initializations(
    gd_plus: Graph,
    solver: Optional[VertexSolver] = None,
    tol_scale: float = 1e-2,
    max_expansions: int = 10_000,
    vertices: Optional[Sequence[Vertex]] = None,
    drop_subsumed: bool = True,
    backend: BackendLike = "python",
    adjacency=None,
) -> AllInitsResult:
    """Initialise from every vertex; collect all deduplicated solutions.

    This is *SEACD+Refine* when *solver* is None, and *SEA+Refine* when
    the caller passes :func:`repro.affinity.sea.sea_refine_solver`.
    With no explicit *solver* the per-vertex SEACD+Refine closure comes
    from the registry backend (``"sparse"`` runs the vectorised CSR
    kernels, building the CSR adjacency once for all initialisations).

    Without a custom *solver*, signed input raises
    :class:`~repro.exceptions.InputMismatchError` on every backend, as
    in :func:`new_sea`.

    The returned ``solutions`` follow the paper's Table V / Fig. 3
    post-processing: duplicates removed and (optionally) supports that
    are subsets of other found supports dropped.
    """
    if solver is None:
        _check_tol_scale(tol_scale)
        solver_backend = resolve_backend(backend)
        solver_backend.check_adjacency(adjacency)
        solver = solver_backend.vertex_solver(
            gd_plus,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            adjacency=adjacency,
        )
    elif adjacency is not None:
        raise ValueError(
            "adjacency is unused when a custom solver is supplied"
        )
    pool = list(vertices) if vertices is not None else sorted(
        gd_plus.vertices(), key=repr
    )
    if not pool:
        raise ValueError("graph has no vertices")

    by_support: Dict[frozenset, Tuple[Dict[Vertex, float], float]] = {}
    errors = 0
    for vertex in pool:
        x, objective, run_errors = solver(gd_plus, vertex)
        errors += run_errors
        support = frozenset(u for u, w in x.items() if w > 0.0)
        if not support:
            continue
        incumbent = by_support.get(support)
        if incumbent is None or objective > incumbent[1]:
            by_support[support] = (x, objective)

    if not by_support:
        vertex = pool[0]
        by_support[frozenset({vertex})] = ({vertex: 1.0}, 0.0)

    if drop_subsumed:
        kept_supports = remove_subsumed_cliques(by_support)
        kept_keys = {frozenset(s) for s in kept_supports}
    else:
        kept_keys = set(by_support)

    solutions = sorted(
        (
            (set(support), x, objective)
            for support, (x, objective) in by_support.items()
            if support in kept_keys
        ),
        key=lambda item: -item[2],
    )

    best_support, best_x, best_objective = solutions[0]
    best = DCSGAResult(
        x=best_x,
        objective=best_objective,
        support=set(best_support),
        is_positive_clique=is_clique(gd_plus, best_support),
        initializations=len(pool),
        expansion_errors=errors,
    )
    return AllInitsResult(
        best=best,
        solutions=solutions,
        initializations=len(pool),
        expansion_errors=errors,
    )
