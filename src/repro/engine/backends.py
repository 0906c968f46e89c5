"""The built-in :class:`~repro.engine.registry.SolverBackend` instances.

Importing this module registers them:

========== ============== =================================================
name       aliases        implementation
========== ============== =================================================
python     heap           the dict-of-dicts reference kernels (ground
                          truth in the test suite; stdlib-only)
segment_tree               Algorithm 1 peeling over a min segment tree —
                          peel capability only
sparse                    the vectorised CSR/NumPy orchestration of
                          :mod:`repro.core.sparse_solvers` over the NumPy
                          kernel set; available only when SciPy imports
native     numba          the sparse backend class with the Numba
                          ``@njit`` kernel set of
                          :mod:`repro.core.native_kernels`; available
                          only when SciPy *and* Numba import
========== ============== =================================================

No backend implements NewSEA (Algorithm 5) itself:
:func:`repro.core.newsea.new_sea` walks each backend's
``initialization_plan`` with its ``vertex_solver``.

Every method body is a lazy import of the kernel it wraps — the
registry stays import-light and free of cycles (the core modules import
the registry to dispatch, the backends import the core modules to
implement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.engine.registry import SolverBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.affinity.replicator import ReplicatorResult
    from repro.core.initialization import InitializationPlan
    from repro.core.native_kernels import KernelSet
    from repro.core.newsea import VertexSolver
    from repro.core.refinement import RefinementResult
    from repro.core.seacd import SEACDResult
    from repro.core.sparse_solvers import SparseKernels
    from repro.graph.graph import Graph, Vertex
    from repro.graph.sparse import CSRAdjacency
    from repro.peeling.greedy import PeelResult


class PythonBackend(SolverBackend):
    """The pure-Python reference implementation of every capability."""

    name = "python"

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        from repro.peeling.greedy import _peel_heap

        return _peel_heap(graph)

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        from repro.core.seacd import _seacd_python

        return _seacd_python(
            graph,
            x0,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            max_cd_iterations=max_cd_iterations,
        )

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        from repro.core.refinement import _refine_python

        return _refine_python(
            graph,
            x0,
            tol_scale=tol_scale,
            max_cd_iterations=max_cd_iterations,
        )

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        from repro.core.newsea import _default_solver, _require_positive

        _require_positive(gd_plus)
        return _default_solver(tol_scale, max_expansions)

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        from repro.core.initialization import _smart_initialization_plan_python

        return _smart_initialization_plan_python(gd_plus)

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        from repro.affinity.replicator import _replicator_python

        return _replicator_python(graph, x0, rule, tol, max_iterations)


class SegmentTreeBackend(SolverBackend):
    """Algorithm 1 over a min segment tree — a peel-only backend.

    Exists to keep the paper's suggested priority structure benchmarkable
    (`bench_ablation_peeling_backend.py`); asking it for any other
    capability raises :class:`~repro.exceptions.BackendCapabilityError`.
    """

    name = "segment_tree"

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        from repro.peeling.greedy import _peel_segment_tree

        return _peel_segment_tree(graph)


class SparseBackend(SolverBackend):
    """The vectorised CSR/NumPy backend; requires SciPy.

    The hot loops (2-coordinate descent, peeling, replicator dynamics)
    come from one kernel set, :meth:`kernels`; the orchestration of
    :mod:`repro.core.sparse_solvers` gets its coordinate descent through
    the ``cd=`` seam, so a subclass that swaps the kernel set reuses it.

    Capabilities accept a prebuilt
    :class:`~repro.graph.sparse.CSRAdjacency` (``adjacency=``) so
    callers running many solves on one graph — the batch layer through
    :class:`~repro.engine.prepared.PreparedGraph` — freeze it once.
    """

    name = "sparse"
    supports_shared_adjacency = True

    def available(self) -> bool:
        from repro.graph.sparse import scipy_available

        return scipy_available()

    def missing_reason(self) -> str:
        return (
            "backend='sparse' requires SciPy, which is not installed; "
            "use the pure-Python backend instead"
        )

    def kernels(self) -> Union["SparseKernels", "KernelSet"]:
        from repro.core.sparse_solvers import SPARSE_KERNELS

        return SPARSE_KERNELS

    def peel(
        self,
        graph: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "PeelResult":
        return self.kernels().peel(graph, adjacency=adjacency)

    def seacd(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        max_cd_iterations: int = 100_000,
    ) -> "SEACDResult":
        from repro.core.sparse_solvers import seacd_csr

        return seacd_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_expansions=max_expansions,
            max_cd_iterations=max_cd_iterations,
            cd=self.kernels().coordinate_descent,
        )

    def refine(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        tol_scale: float = 1e-2,
        max_cd_iterations: int = 100_000,
    ) -> "RefinementResult":
        from repro.core.refinement import RefinementResult
        from repro.core.sparse_solvers import refine_csr

        x, objective, merges, initial = refine_csr(
            graph,
            x0,
            tol_scale=tol_scale,
            max_cd_iterations=max_cd_iterations,
            cd=self.kernels().coordinate_descent,
        )
        return RefinementResult(
            x=x,
            objective=objective,
            merges=merges,
            initial_objective=initial,
        )

    def vertex_solver(
        self,
        gd_plus: "Graph",
        tol_scale: float = 1e-2,
        max_expansions: int = 10_000,
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "VertexSolver":
        from repro.core.sparse_solvers import csr_vertex_solver

        return csr_vertex_solver(
            gd_plus, tol_scale, max_expansions, adjacency=adjacency,
            cd=self.kernels().coordinate_descent,
        )

    def initialization_plan(
        self,
        gd_plus: "Graph",
        adjacency: Optional["CSRAdjacency"] = None,
    ) -> "InitializationPlan":
        from repro.core.initialization import _smart_initialization_plan_sparse

        return _smart_initialization_plan_sparse(gd_plus, adjacency)

    def replicator(
        self,
        graph: "Graph",
        x0: Dict["Vertex", float],
        rule: str = "objective",
        tol: float = 1e-6,
        max_iterations: int = 100_000,
    ) -> "ReplicatorResult":
        return self.kernels().replicator(
            graph, x0, rule=rule, tol=tol, max_iterations=max_iterations
        )


class NativeBackend(SparseBackend):
    """The sparse backend with a Numba-compiled kernel set; requires
    SciPy + Numba.

    :meth:`kernels` returns a :class:`~repro.core.native_kernels.KernelSet`
    whose ``@njit(cache=True)`` kernels replay the sparse hot loops
    operation for operation; everything else is inherited, which is what
    makes native and sparse envelope payloads byte-identical.

    Numba is imported lazily on first use; without it the backend stays
    registered but unavailable (``resolve_backend("native",
    fallback="sparse")`` degrades gracefully with one
    :class:`~repro.exceptions.BackendFallbackWarning`).  ``jit=False``
    runs the same kernel bodies interpreted — the differential-test
    mode, exercising the exact code Numba compiles.
    """

    name = "native"

    def __init__(self, jit: bool = True) -> None:
        self._jit = jit

    def available(self) -> bool:
        from repro.core.native_kernels import numba_available
        from repro.graph.sparse import scipy_available

        if not scipy_available():
            return False
        return numba_available() if self._jit else True

    def missing_reason(self) -> str:
        from repro.graph.sparse import scipy_available

        if not scipy_available():
            return (
                "backend='native' requires SciPy, which is not "
                "installed; use the pure-Python backend instead"
            )
        return (
            "backend='native' requires Numba, which is not installed; "
            "use the sparse backend instead (or resolve with "
            "fallback='sparse')"
        )

    def warm(self) -> None:
        """Compile every kernel now (once per process), not per query."""
        from repro.core.native_kernels import warm_kernels

        warm_kernels(jit=self._jit)

    def kernels(self) -> "KernelSet":
        from repro.core.native_kernels import get_kernels

        return get_kernels(jit=self._jit)


#: The instances the package registers on import.
PYTHON = PythonBackend()
SEGMENT_TREE = SegmentTreeBackend()
SPARSE = SparseBackend()
NATIVE = NativeBackend()

register_backend(PYTHON, aliases=("heap",))
register_backend(SEGMENT_TREE)
register_backend(SPARSE)
register_backend(NATIVE, aliases=("numba",))
