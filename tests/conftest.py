"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

# Imported eagerly so the hypothesis pytest plugin's lazy import at
# terminal summary finds it cached.  Importing it *there* triggers an
# assertion-rewrite ast.parse at a moment when garbage collection of
# orphaned event-loop coroutines can fire mid-compile, which CPython
# 3.11 answers with "SystemError: AST constructor recursion depth
# mismatch" — failing otherwise-green runs of test subsets that never
# touch hypothesis themselves.
import hypothesis  # noqa: F401
import pytest

from repro.graph.graph import Graph


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "jit: exercises real Numba JIT compilation (seconds of warm-up); "
        "excluded from the default tier — run with -m jit (or "
        '-m "jit or not jit" for everything)',
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list
) -> None:
    """Keep the default ``pytest -x -q`` tier fast: JIT-warmup tests
    only run when a ``-m`` expression explicitly asks for them."""
    if config.option.markexpr:
        return
    skip_jit = pytest.mark.skip(
        reason="jit-marked (JIT warm-up is slow); run with -m jit"
    )
    for item in items:
        if "jit" in item.keywords:
            item.add_marker(skip_jit)


@pytest.fixture
def triangle() -> Graph:
    """Unit-weight triangle on {a, b, c}."""
    return Graph.from_edges(
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
    )


@pytest.fixture
def paper_pair():
    """The Fig. 1 example: (G1, G2) whose difference graph is drawn there.

    G1 edges: (1,2)=2? — Fig. 1 does not label every weight legibly, so
    this fixture uses a pair engineered to produce a mixed-sign
    difference graph with the same 5-vertex shape.
    """
    g1 = Graph.from_edges(
        [(1, 2, 2.0), (2, 3, 2.0), (1, 4, 1.0), (3, 4, 3.0), (3, 5, 2.0), (4, 5, 5.0)]
    )
    g2 = Graph.from_edges(
        [(1, 2, 2.0), (2, 3, 3.0), (1, 4, 4.0), (1, 5, 1.0), (3, 4, 6.0), (4, 5, 3.0), (2, 5, 2.0)]
    )
    for v in (1, 2, 3, 4, 5):
        g1.add_vertex(v)
        g2.add_vertex(v)
    return g1, g2


@pytest.fixture
def signed_graph() -> Graph:
    """A small hand-built signed difference graph with a known optimum.

    The positive triangle {a, b, c} (weights 3, 3, 3) is the densest
    contrast structure; d/e hang off it with negative edges.
    """
    return Graph.from_edges(
        [
            ("a", "b", 3.0),
            ("b", "c", 3.0),
            ("a", "c", 3.0),
            ("c", "d", -2.0),
            ("d", "e", 1.0),
            ("a", "e", -4.0),
        ]
    )


def brute_force_densest(graph: Graph):
    """Reference densest subgraph by exhaustive enumeration (tiny n)."""
    import itertools

    vertices = list(graph.vertices())
    best, best_density = None, float("-inf")
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            density = graph.total_degree(set(subset)) / size
            if density > best_density:
                best, best_density = set(subset), density
    return best, best_density


@pytest.fixture(scope="module")
def workload():
    """The planted-burst event stream the engine tests share: 5 planted
    members surge at steps 9–11 of 18 over 60 vertices."""
    from repro.datasets.streaming import burst_event_stream

    return burst_event_stream(
        n_vertices=60,
        n_steps=18,
        anomaly_size=5,
        anomaly_start=9,
        anomaly_duration=3,
        seed=7,
    )


def snapshot_events(snapshots):
    """The event log of a snapshot stream: step ``t``'s events turn
    snapshot ``t - 1`` (an empty graph before step 0) into snapshot
    ``t``."""
    from repro.stream import events_between

    previous = Graph()
    events = []
    for t, snapshot in enumerate(snapshots):
        events.extend(events_between(previous, snapshot, t))
        previous = snapshot
    return events
