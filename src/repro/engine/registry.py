"""The pluggable backend registry — one dispatch seam for every solver.

Before this module existed, every solver entry point carried its own
``if backend == "sparse": ...`` ladder, and adding a backend (a
numba/JIT kernel set, a sharded remote executor, an instrumented test
double) meant editing ten call sites.  Now a backend is an object:

* subclass :class:`SolverBackend` and override the capabilities you
  provide (the names in :data:`CAPABILITIES`) — NewSEA (Algorithm 5)
  is not one of them: :func:`repro.core.newsea.new_sea` walks any
  backend's ``initialization_plan`` with its ``vertex_solver``;
* call :func:`register_backend` with a name (and optional aliases);
* every layer — core solvers, CLI, batch service, streaming engine —
  immediately accepts the new name.

Lookups are dict reads, not string ladders.  Error taxonomy:

* an unregistered name raises
  :class:`~repro.exceptions.UnknownBackendError` (a ``ValueError``);
* a registered backend whose dependency is missing (``"sparse"``
  without SciPy) raises
  :class:`~repro.exceptions.BackendUnavailableError` at lookup time —
  or, with :func:`resolve_backend`'s *fallback*, degrades gracefully to
  the named substitute;
* a backend that lacks the requested capability raises
  :class:`~repro.exceptions.BackendCapabilityError` (a ``ValueError``).

The built-in backends (``python`` with alias ``heap``,
``segment_tree``, ``sparse``, and ``native`` with alias ``numba``) are
registered when :mod:`repro.engine.backends` is imported, which the
package ``__init__`` does before any code can reach this module.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import (
    BackendCapabilityError,
    BackendFallbackWarning,
    BackendUnavailableError,
    InputMismatchError,
    UnknownBackendError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports (no cycles at runtime)
    from repro.affinity.replicator import ReplicatorResult
    from repro.core.initialization import InitializationPlan
    from repro.core.newsea import VertexSolver
    from repro.core.refinement import RefinementResult
    from repro.core.seacd import SEACDResult
    from repro.graph.graph import Graph, Vertex
    from repro.graph.sparse import CSRAdjacency
    from repro.peeling.greedy import PeelResult

from typing import Literal

#: The solver-backend vocabulary shared by every layer that solves
#: (stream, batch, CLI).  Peeling additionally accepts the
#: priority-structure names of :data:`PeelBackend`.
Backend = Literal["python", "sparse"]
#: Peeling accepts the two pure-Python priority structures by name.
PeelBackend = Literal["python", "heap", "segment_tree", "sparse"]

#: Anything the dispatch seam accepts: a registered name or an instance.
BackendLike = Union[str, "SolverBackend"]

#: Every capability a backend can provide: the method names of
#: :class:`SolverBackend` that solver entry points dispatch to.
CAPABILITIES = (
    "peel", "seacd", "refine", "vertex_solver",
    "initialization_plan", "replicator",
)


class SolverBackend:
    """Base class / protocol of one compute backend.

    Capabilities default to :class:`BackendCapabilityError`; a backend
    overrides the ones it implements.  ``available()`` gates optional
    dependencies — an unavailable backend stays *registered* (so its
    name is known and the error message is precise) but cannot be
    resolved.

    ``supports_shared_adjacency`` declares that the backend's kernels
    can consume a prebuilt :class:`~repro.graph.sparse.CSRAdjacency`
    (the :class:`~repro.engine.prepared.PreparedGraph` sharing
    contract); on other backends passing ``adjacency=`` is an error,
    which the solver entry points raise through :meth:`check_adjacency`.
    """

    #: Registry name (set on the subclass).
    name: str = ""
    #: Whether ``adjacency=`` / CSR sharing means anything here.
    supports_shared_adjacency: bool = False

    # -- availability --------------------------------------------------
    def available(self) -> bool:
        """Whether the backend's dependencies are importable."""
        return True

    def missing_reason(self) -> str:
        """Why :meth:`available` is False (shown in lookup errors)."""
        return f"backend {self.name!r} is unavailable"

    def require_available(self) -> None:
        """Raise :class:`BackendUnavailableError` if unusable here."""
        if not self.available():
            raise BackendUnavailableError(self.missing_reason())

    def warm(self) -> None:
        """Pay any one-time per-process startup cost now (JIT
        compilation, kernel caches) so queries never do.

        A no-op for the interpreted backends; long-lived hosts — batch
        pool initializers, ``repro serve`` — call this on every backend
        they are about to serve."""

    # -- capability introspection -------------------------------------
    def has_capability(self, capability: str) -> bool:
        """Whether this backend overrides *capability* (vs. the base
        class's raising stub)."""
        mine = getattr(type(self), capability, None)
        return mine is not getattr(SolverBackend, capability, None)

    def require_capabilities(self, *capabilities: str) -> None:
        """Fail fast (at construction time, not mid-stream) when a
        long-lived consumer needs capabilities this backend lacks."""
        for capability in capabilities:
            if not self.has_capability(capability):
                raise BackendCapabilityError(self.name, capability)

    # -- shared-adjacency contract ------------------------------------
    def check_adjacency(self, adjacency: Optional["CSRAdjacency"]) -> None:
        """Reject ``adjacency=`` unless the backend is CSR-capable (run
        once by each entry point; capability methods do not repeat it)."""
        if adjacency is not None and not self.supports_shared_adjacency:
            raise InputMismatchError(
                "adjacency is only meaningful with a CSR-capable backend "
                f"(backend={self.name!r} does not share adjacencies)"
            )

    # -- capabilities --------------------------------------------------
    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        """Algorithm 1: greedy peeling by minimum induced degree."""
        raise BackendCapabilityError(self.name, "peel")

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        """Algorithm 3: shrink/expansion loop to a global KKT point."""
        raise BackendCapabilityError(self.name, "seacd")

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        """Algorithm 4: merge to a positive-clique support."""
        raise BackendCapabilityError(self.name, "refine")

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        """A per-vertex SEACD+Refine closure: what ``new_sea`` and
        ``solve_all_initializations`` run from each initial vertex.
        Building it checks that ``gd_plus`` is positive."""
        raise BackendCapabilityError(self.name, "vertex_solver")

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        """Theorem 6 smart-initialisation bounds ``mu_u`` + trial order
        (the plan ``new_sea`` walks)."""
        raise BackendCapabilityError(self.name, "initialization_plan")

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        """Replicator dynamics (the original SEA's shrink stage)."""
        raise BackendCapabilityError(self.name, "replicator")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# the registry proper
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SolverBackend] = {}


def register_backend(
    backend: SolverBackend,
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> SolverBackend:
    """Register *backend* under ``backend.name`` (plus *aliases*).

    Re-registering a taken name requires ``replace=True`` — accidental
    shadowing of a built-in should be loud.  Returns the backend so the
    call can be used as an expression.
    """
    if not backend.name:
        raise ValueError("backend must set a non-empty name")
    names = (backend.name,) + tuple(aliases)
    if not replace:
        taken = [name for name in names if name in _REGISTRY]
        if taken:
            raise ValueError(
                f"backend name(s) already registered: {', '.join(taken)}; "
                "pass replace=True to shadow"
            )
    for name in names:
        _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> SolverBackend:
    """Remove one registry entry (alias-by-alias); returns the backend."""
    if name not in _REGISTRY:
        raise UnknownBackendError(name, known=tuple(_REGISTRY))
    return _REGISTRY.pop(name)


def backend_names() -> Tuple[str, ...]:
    """Every registered name (aliases included), sorted."""
    return tuple(sorted(_REGISTRY))


def warm_backends() -> List[str]:
    """Warm every available registered backend; returns their names.

    Long-lived hosts (``repro serve`` and each of its cluster workers)
    call this before accepting traffic, so a JIT-compiling backend pays
    its compilation once per process, never inside a request.
    """
    warmed: List[str] = []
    for name in sorted({backend.name for backend in _REGISTRY.values()}):
        backend = get_backend(name, require=False)
        if backend.available():
            backend.warm()
            warmed.append(name)
    return warmed


def get_backend(name: str, require: bool = True) -> SolverBackend:
    """Look up a backend by registered name.

    Unknown names raise :class:`UnknownBackendError`; with *require*
    (the default), an unavailable backend (missing dependency) raises
    :class:`BackendUnavailableError` here rather than deep inside a
    solve.
    """
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, known=tuple(_REGISTRY)) from None
    if require:
        backend.require_available()
    return backend


_trace_hook = None


def _instrumented(backend: SolverBackend) -> SolverBackend:
    """Wrap *backend* for tracing iff the ambient tracer records.

    The hook import is deferred and cached: :mod:`repro.obs` depends on
    this module, so the registry cannot import it at module scope, and
    the no-op path must stay cheap — after the first call this is one
    function call plus a :mod:`contextvars` read.
    """
    global _trace_hook
    if _trace_hook is None:
        from repro.obs.backend import maybe_wrap

        _trace_hook = maybe_wrap
    return _trace_hook(backend)


def resolve_backend(
    backend: BackendLike,
    fallback: Optional[str] = None,
) -> SolverBackend:
    """Resolve a name *or* instance to a usable backend.

    *fallback* names the backend to degrade to when the requested one
    is registered but unavailable (e.g. ``"sparse"`` without SciPy →
    ``"python"``); without it, unavailability raises.  Unknown names
    always raise — a typo should never silently fall back.

    When a recording tracer is active in the current context (see
    :func:`repro.obs.trace.recording`), the resolved backend comes back
    wrapped in a :class:`~repro.obs.backend.TracingBackend`, so every
    capability call records a ``backend.<capability>`` span.  With the
    default no-op tracer the backend is returned untouched.
    """
    if isinstance(backend, SolverBackend):
        backend.require_available()
        return _instrumented(backend)
    found = get_backend(backend, require=False)
    if not found.available():
        if fallback is None:
            found.require_available()
        pair = (backend, fallback)
        if pair not in _FALLBACK_WARNED:
            # Warn once per (requested, substitute) pair per process:
            # graceful degradation should be visible, not noisy.
            _FALLBACK_WARNED.add(pair)
            warnings.warn(
                f"backend {backend!r} is unavailable "
                f"({found.missing_reason()}); falling back to "
                f"{fallback!r}",
                BackendFallbackWarning,
                stacklevel=2,
            )
        return _instrumented(get_backend(fallback))
    return _instrumented(found)


#: (requested, fallback) pairs already warned about in this process.
_FALLBACK_WARNED: Set[Tuple[str, Optional[str]]] = set()
