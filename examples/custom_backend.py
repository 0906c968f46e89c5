"""Register a custom solver backend — the engine's extension point.

The engine registry (:mod:`repro.engine`) is how new compute backends
plug into *every* layer at once: subclass
:class:`~repro.engine.SolverBackend`, override the capabilities you
provide, register the instance, and the core solvers, the CLI
(``--backend``), batch query records and the streaming engine all
accept the new name — no solver edits anywhere.

This example builds a toy **instrumented** backend: it delegates the
actual work to the built-in pure-Python backend but counts every
capability call, the kind of wrapper you would use to profile which
kernels a workload actually exercises.

The module is doctested (``python -m doctest examples/custom_backend.py``
runs in CI's docs check)::

    >>> backend = CountingBackend()
    >>> _ = register_backend(backend)

    A difference graph with an emerging triangle:

    >>> g1 = Graph.from_edges([("a", "b", 1.0)], vertices="abcd")
    >>> g2 = Graph.from_edges(
    ...     [("a", "b", 3.0), ("b", "c", 2.0), ("a", "c", 2.5)],
    ...     vertices="d",
    ... )
    >>> gd = difference_graph(g1, g2)

    The registered name now works everywhere a backend is accepted —
    here through the top-level DCSAD solver (which peels both GD and
    GD+) and the DCSGA pipeline:

    >>> sorted(dcs_greedy(gd, backend="counting").subset)
    ['a', 'b', 'c']
    >>> result = new_sea(gd.positive_part(), backend="counting")
    >>> sorted(result.support)
    ['a', 'b', 'c']
    >>> backend.counts["peel"]
    2

    NewSEA is not a capability of its own: ``new_sea`` took the trial
    order from ``initialization_plan`` and ran each initialisation
    through the closure ``vertex_solver`` built once:

    >>> backend.counts["initialization_plan"], backend.counts["vertex_solver"]
    (1, 1)

    Unknown names stay loud (the registry raises the standard
    ``UnknownBackendError``, a ``ValueError``):

    >>> dcs_greedy(gd, backend="no-such-backend")
    Traceback (most recent call last):
        ...
    repro.exceptions.UnknownBackendError: unknown backend 'no-such-backend'; registered backends: counting, heap, native, numba, python, segment_tree, sparse

    ...and capabilities the backend does not override raise a clear
    capability error instead of silently misbehaving:

    >>> from repro.engine import get_backend
    >>> get_backend("segment_tree").seacd(gd, {"a": 1.0})
    Traceback (most recent call last):
        ...
    repro.exceptions.BackendCapabilityError: backend 'segment_tree' does not implement 'seacd'

    Clean up so repeated doctest runs start fresh:

    >>> _ = unregister_backend("counting")

Run as a script for a narrated version::

    python examples/custom_backend.py
"""

from __future__ import annotations

from collections import Counter

from repro.core.dcsad import dcs_greedy
from repro.core.difference import difference_graph
from repro.core.newsea import new_sea
from repro.engine import (
    SolverBackend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.graph.graph import Graph


class CountingBackend(SolverBackend):
    """Delegate every capability to ``python``, counting the calls."""

    name = "counting"

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._inner = get_backend("python")

    def peel(self, graph, adjacency=None):
        self.counts["peel"] += 1
        return self._inner.peel(graph, adjacency=adjacency)

    def seacd(self, graph, x0, **kwargs):
        self.counts["seacd"] += 1
        return self._inner.seacd(graph, x0, **kwargs)

    def refine(self, graph, x0, **kwargs):
        self.counts["refine"] += 1
        return self._inner.refine(graph, x0, **kwargs)

    def vertex_solver(self, gd_plus, **kwargs):
        self.counts["vertex_solver"] += 1
        return self._inner.vertex_solver(gd_plus, **kwargs)

    def initialization_plan(self, gd_plus, adjacency=None):
        self.counts["initialization_plan"] += 1
        return self._inner.initialization_plan(gd_plus, adjacency=adjacency)

    def replicator(self, graph, x0, **kwargs):
        self.counts["replicator"] += 1
        return self._inner.replicator(graph, x0, **kwargs)


def main() -> None:
    backend = CountingBackend()
    register_backend(backend)
    try:
        g1 = Graph.from_edges([("a", "b", 1.0)], vertices="abcd")
        g2 = Graph.from_edges(
            [("a", "b", 3.0), ("b", "c", 2.0), ("a", "c", 2.5)],
            vertices="d",
        )
        gd = difference_graph(g1, g2)

        ad = dcs_greedy(gd, backend="counting")
        ga = new_sea(gd.positive_part(), backend="counting")
        print(f"DCSAD subset : {sorted(map(str, ad.subset))}")
        print(f"DCSGA support: {sorted(map(str, ga.support))}")
        print("capability calls through the instrumented backend:")
        for capability, count in sorted(backend.counts.items()):
            print(f"  {capability:20s} {count}")
    finally:
        unregister_backend("counting")


if __name__ == "__main__":
    main()
