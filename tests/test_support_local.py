"""The support-local SEACD + Refinement core of the CSR backends.

:mod:`repro.core.sparse_solvers` keeps each initialisation's iterate as
its support rows plus their values, so two things must hold:

* **No n-wide work per initialisation.**  With
  ``CSRAdjacency.matvec``, ``.objective`` and ``.embedding_dict``
  patched to raise, the sparse and interpreted native backends still
  answer every DCSGA path on a planted clique padded with 10,000
  isolated vertices (:class:`TestNoFullWidthWork`).
* **The answers of the n-wide core it replaced**, kept below verbatim
  as the oracle (:class:`TestFullWidthOracle`).  Where BLAS sums a dot
  of fewer than 16 entries one term after another (x86-64 OpenBLAS
  does), padding it with zeros leaves its bits alone, so on graphs
  under 16 vertices the oracle's n-entry dots and the new core's
  support-sized ones agree to the bit and both cores take the same
  steps; their objectives then differ only in how the final
  ``x^T D x`` is summed (the new core sums it on the support's block),
  far inside 1e-12.  Where BLAS sums a dot in SIMD lanes picked by
  position (every BLAS from 16 entries up, some below), ``omega`` may
  move by an ulp, coordinate descent then stops elsewhere inside its
  gradient-gap tolerance, and single runs can differ by a few parts in
  a million; those answers are compared at 1e-6.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.expansion import PRUNE_EPS
from repro.core.kkt import check_kkt
from repro.core.newsea import new_sea, solve_all_initializations
from repro.core.seacd import SEACDStats
from repro.core.sparse_solvers import (
    CoordinateDescentFn,
    _Rows,
    coordinate_descent_csr,
    csr_vertex_solver,
    refine_csr,
    seacd_csr,
)
from repro.core.topk import top_k_dcsga
from repro.engine import get_backend
from repro.graph.cliques import is_clique
from repro.graph.generators import random_signed_graph
from repro.graph.graph import Graph
from repro.graph.sparse import CSRAdjacency, scipy_available

pytestmark = pytest.mark.skipif(
    not scipy_available(), reason="the support-local core runs on CSR"
)

KKT_TOL = 5e-3


def _backends():
    from repro.engine.backends import NativeBackend

    return [get_backend("sparse"), NativeBackend(jit=False)]


# ----------------------------------------------------------------------
# no n-wide work
# ----------------------------------------------------------------------
class TestNoFullWidthWork:
    @pytest.fixture
    def padded(self):
        rng = random.Random(11)
        members = [f"c{i}" for i in range(6)]
        graph = Graph()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                graph.add_edge(u, v, rng.uniform(1.0, 2.0))
        graph.add_vertices(f"iso{i:05d}" for i in range(10_000))
        return graph, set(members)

    @pytest.fixture
    def full_width_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("n-wide work in a DCSGA solve")

        # The adjacency's objective() (x^T D x over all n) moved to this
        # file's oracle helpers, so no solver can reach it any more.
        for name in ("matvec", "embedding_dict"):
            monkeypatch.setattr(CSRAdjacency, name, refuse)

    @pytest.mark.parametrize("backend", _backends(), ids=["sparse", "native"])
    def test_every_dcsga_path_answers(self, padded, full_width_refused, backend):
        graph, members = padded
        assert new_sea(graph, backend=backend).support == members
        everything = solve_all_initializations(graph, backend=backend)
        assert everything.best.support == members
        ranked = top_k_dcsga(graph, 3, backend=backend)
        assert len(ranked) == 3
        assert ranked[0].subset == members
        found = backend.seacd(graph, {"c0": 1.0})
        assert found.converged
        assert set(found.x) == members
        refined = backend.refine(graph, found.x)
        assert set(refined.x) == members
        assert refined.merges == 0


class TestSharedAdjacency:
    def test_concurrent_solves_get_the_serial_answer(self):
        # gather_rows keeps no buffer on the adjacency, so two
        # threads solving on one adjacency cannot clobber each other,
        # even when they switch between almost every bytecode.
        import sys
        import threading

        graph = random_signed_graph(120, 0.08, seed=4).positive_part()
        adj = CSRAdjacency.from_graph(graph)
        expected = new_sea(graph, backend="sparse", adjacency=adj).x
        answers, failures = [], []

        def solve():
            try:
                for _ in range(4):
                    answers.append(
                        new_sea(graph, backend="sparse", adjacency=adj).x
                    )
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert answers == [expected] * 8


class TestLocalCSRBlock:
    """Past DENSE_SUPPORT_LIMIT the round's block is a local CSR matrix
    built from the same gather; with the limit at 2 every larger
    support takes that path."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_blocks(self, monkeypatch, seed):
        import repro.core.sparse_solvers as solvers
        from repro.engine.backends import NativeBackend

        graph = random_signed_graph(30, 0.3, seed=seed).positive_part()
        dense = new_sea(graph, backend="sparse")
        monkeypatch.setattr(solvers, "DENSE_SUPPORT_LIMIT", 2)
        local = new_sea(graph, backend="sparse")
        native = new_sea(graph, backend=NativeBackend(jit=False))
        # The CSR block's products round differently from the dense
        # block's, so coordinate descent may stop elsewhere inside its
        # tolerance.
        assert local.support == dense.support
        assert local.objective == pytest.approx(dense.objective, rel=1e-6)
        assert native.x == local.x
        assert native.objective == local.objective
        _assert_kkt_positive_clique(graph, local.x)


class TestStartOrder:
    """The CSR entry points accept a start embedding in any vertex
    order: the core sorts its rows before the first gather, whose
    column lookup needs them ascending."""

    def test_descending_start_gives_the_ascending_answer(self):
        from repro.core.refinement import refine
        from repro.core.seacd import seacd

        graph = random_signed_graph(30, 0.3, seed=2).positive_part()
        adj = CSRAdjacency.from_graph(graph)
        top = max(range(adj.n), key=lambda i: (len(_row(adj, i)[0]), i))
        rows = sorted([top, *_row(adj, top)[0][:3].tolist()], reverse=True)
        assert rows[0] > rows[-1] and adj.matrix[rows[0], rows[-1]] > 0.0
        weights = [0.4, 0.3, 0.2, 0.1]
        descending = {adj.vertices[i]: w for i, w in zip(rows, weights)}
        ascending = dict(sorted(descending.items(), key=lambda e: adj.index[e[0]]))

        found = seacd_csr(graph, descending)
        assert found.x == seacd_csr(graph, ascending).x
        assert set(found.x) == set(seacd(graph, ascending).x)
        refined = refine_csr(graph, descending)
        assert refined == refine_csr(graph, ascending)
        assert set(refined[0]) == set(refine(graph, ascending).x)
        _assert_kkt_positive_clique(graph, refine_csr(graph, found.x)[0])


# ----------------------------------------------------------------------
# the n-wide core the support-local one replaced, kept verbatim as the
# oracle of TestFullWidthOracle; only the default of each cd= argument
# changed, to an adapter of today's kernel to the seam it was written
# against.  The three adjacency members it read and nothing in the
# library calls any more live on as the helpers below.
# ----------------------------------------------------------------------
def _objective(adj: CSRAdjacency, x: np.ndarray) -> float:
    """``f(x) = x^T D x``."""
    return float(x @ (adj.matrix @ x))


def _row(adj: CSRAdjacency, i: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(neighbor_indices, weights)`` views of row *i* (sorted)."""
    start, end = adj.indptr[i], adj.indptr[i + 1]
    return adj.indices[start:end], adj.data[start:end]


def _row_dot(adj: CSRAdjacency, i: int, x: np.ndarray) -> float:
    """``(Dx)_i`` for a single coordinate in O(deg i)."""
    neighbors, weights = _row(adj, i)
    return float(weights @ x[neighbors])


def _full_width_cd(
    adj: CSRAdjacency,
    x: np.ndarray,
    members: np.ndarray,
    tol: float,
    max_iterations: int = 100_000,
    need_dx: bool = True,
):
    """The old ``cd=`` seam: a full-width iterate in, and with *need_dx*
    a full-width gradient out."""
    x[members], objective, iterations, converged = coordinate_descent_csr(
        x[members], _Rows(adj, members).block(), tol, max_iterations
    )
    return x, adj.matvec(x) if need_dx else None, objective, iterations, converged


def expansion_step_csr(
    adj: CSRAdjacency,
    x: np.ndarray,
    dx: np.ndarray,
    objective: float,
    strict_tol: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray, float, bool, int]:
    """One SEA expansion from the KKT point *x* with gradient cache *dx*.

    Uses the unconditional-ascent ``lambda_bar = f(x)`` rule (the SEACD
    choice; see :func:`repro.core.expansion.expansion_step`).  Returns
    ``(new_x, new_dx, new_objective, expanded, z_size)``; when nothing
    qualifies for ``Z`` the inputs are returned unchanged.
    """
    lambda_bar = objective
    threshold = lambda_bar + strict_tol * max(1.0, abs(lambda_bar))

    outside = x <= 0.0
    candidates = outside & (dx > threshold)
    if threshold < 0.0:
        # Degenerate signed case: dx == 0 then beats the threshold, but a
        # vertex with no support neighbour is not in the frontier.  Mask
        # non-frontier vertices explicitly (|D| restricted to support).
        frontier = np.zeros(adj.n, dtype=bool)
        for s in np.flatnonzero(x > 0.0):
            neighbors, _ = _row(adj, int(s))
            frontier[neighbors] = True
        candidates &= frontier
    z = np.flatnonzero(candidates)
    if z.size == 0:
        return x, dx, objective, False, 0

    gamma = dx[z] - lambda_bar
    s_total = float(gamma.sum())
    zeta = float(gamma @ gamma)
    if z.size == 1:
        # A single candidate: the zero diagonal makes omega exactly 0.
        omega = 0.0
    else:
        # omega = gamma^T D[Z][:, Z] gamma via one full-width product on
        # the scattered gamma (zeros kill every out-of-Z term) — much
        # cheaper than materialising the induced block.
        scattered = np.zeros_like(dx)
        scattered[z] = gamma
        omega = float(scattered @ adj.matvec(scattered))

    a = lambda_bar * s_total * s_total + 2.0 * s_total * zeta - omega
    if a <= 0.0:
        tau = 1.0 / s_total
    else:
        tau = min(1.0 / s_total, zeta / a)

    shrink_factor = 1.0 - tau * s_total
    new_x = np.zeros_like(x)
    if shrink_factor > PRUNE_EPS:
        scaled = x * shrink_factor
        keep = scaled > PRUNE_EPS
        new_x[keep] = scaled[keep]
    grown = tau * gamma
    keep = grown > PRUNE_EPS
    new_x[z[keep]] = grown[keep]

    # Renormalise away accumulated rounding (the step preserves the sum
    # analytically: (1 - tau s) + tau s = 1).
    total = float(new_x.sum())
    if total > 0 and abs(total - 1.0) > 1e-12:
        new_x /= total

    new_dx = adj.matvec(new_x)
    return new_x, new_dx, float(new_x @ new_dx), True, int(z.size)


def _seacd_vec(
    adj: CSRAdjacency,
    x: np.ndarray,
    tol_scale: float,
    max_expansions: int,
    max_cd_iterations: int,
    cd: CoordinateDescentFn = _full_width_cd,
) -> Tuple[np.ndarray, float, bool, SEACDStats]:
    if not (x > 0.0).any():
        raise ValueError("initial embedding has empty support")
    stats = SEACDStats()
    converged = False
    objective = 0.0
    while stats.expansions < max_expansions:
        members = np.flatnonzero(x > 0.0)
        x, dx, objective, iterations, _ = cd(
            adj,
            x,
            members,
            tol=tol_scale / len(members),
            max_iterations=max_cd_iterations,
        )
        stats.shrink_calls += 1
        stats.shrink_iterations += iterations
        stats.objective_trace.append(objective)

        x_new, dx_new, objective_new, expanded, _ = expansion_step_csr(
            adj, x, dx, objective
        )
        if not expanded:
            converged = True
            break
        decrease_tol = 1e-12 * max(1.0, abs(objective))
        if objective_new < objective - decrease_tol:
            stats.expansion_errors += 1
        x, dx, objective = x_new, dx_new, objective_new
        stats.expansions += 1

    return x, objective, converged, stats


def _find_non_adjacent_pair_vec(
    adj: CSRAdjacency, support: np.ndarray
) -> Optional[Tuple[int, int]]:
    """A support pair with no edge, or None if the support is a clique.

    Scans lightest-degree vertices first, like the reference backend.
    The adjacency test marks each row in a shared boolean buffer (reset
    after use), which beats set/``isin`` lookups at every support size.
    """
    by_degree = support[np.argsort(adj.unweighted_degrees()[support], kind="stable")]
    is_neighbor = np.zeros(adj.n, dtype=bool)
    for position, u in enumerate(by_degree):
        rest = by_degree[position + 1 :]
        if rest.size == 0:
            break
        neighbors, _ = _row(adj, int(u))
        is_neighbor[neighbors] = True
        missing = rest[~is_neighbor[rest]]
        is_neighbor[neighbors] = False
        if missing.size:
            return int(u), int(missing[0])
    return None


def _refine_vec(
    adj: CSRAdjacency,
    x: np.ndarray,
    tol_scale: float,
    max_cd_iterations: int,
    cd: CoordinateDescentFn = _full_width_cd,
) -> Tuple[np.ndarray, float, int, float]:
    initial_objective = _objective(adj, x)
    merges = 0
    while True:
        support = np.flatnonzero(x > 0.0)
        pair = _find_non_adjacent_pair_vec(adj, support)
        if pair is None:
            break
        u, v = pair
        if _row_dot(adj, u, x) < _row_dot(adj, v, x):
            u, v = v, u
        x[u] += x[v]
        x[v] = 0.0
        members = np.flatnonzero(x > 0.0)
        x, _, _, _, _ = cd(
            adj,
            x,
            members,
            tol=tol_scale / len(members),
            max_iterations=max_cd_iterations,
            need_dx=False,
        )
        merges += 1
    return x, _objective(adj, x), merges, initial_objective


def _solve_one_vec(
    adj: CSRAdjacency,
    vertex_index: int,
    tol_scale: float,
    max_expansions: int,
    cd: CoordinateDescentFn = _full_width_cd,
) -> Tuple[np.ndarray, float, int]:
    """SEACD + Refinement from the indicator of one vertex (by index)."""
    x = np.zeros(adj.n, dtype=np.float64)
    x[vertex_index] = 1.0
    x, _, _, stats = _seacd_vec(adj, x, tol_scale, max_expansions, 100_000, cd=cd)
    x, objective, _, _ = _refine_vec(adj, x, tol_scale, 100_000, cd=cd)
    return x, objective, stats.expansion_errors


@st.composite
def planted_cases(draw) -> Graph:
    """Positive graphs of at most 15 vertices: a planted clique on a
    sparse background, a second component and isolated vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    first = [f"a{i}" for i in range(draw(st.integers(3, 9)))]
    clique = rng.sample(first, draw(st.integers(3, len(first))))
    graph = Graph()
    graph.add_vertices(first)
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            graph.add_edge(u, v, rng.uniform(1.0, 3.0))
    background = draw(st.sampled_from([0.2, 0.4]))
    for i, u in enumerate(first):
        for v in first[i + 1 :]:
            if not graph.has_edge(u, v) and rng.random() < background:
                graph.add_edge(u, v, rng.uniform(0.05, 1.0))
    second = [f"b{i}" for i in range(draw(st.integers(2, 4)))]
    for u, v in zip(second, second[1:]):
        graph.add_edge(u, v, rng.uniform(0.1, 2.0))
    if len(second) > 2 and rng.random() < 0.5:
        graph.add_edge(second[0], second[-1], rng.uniform(0.1, 2.0))
    graph.add_vertices(f"z{i}" for i in range(draw(st.integers(0, 2))))
    return graph


def _oracle_solver(graph: Graph):
    adj = CSRAdjacency.from_graph(graph)

    def solve(_graph, vertex):
        x, objective, errors = _solve_one_vec(adj, adj.index[vertex], 1e-2, 10_000)
        return adj.embedding_dict(x), objective, errors

    return solve


def _assert_kkt_positive_clique(graph: Graph, x) -> None:
    assert is_clique(graph, set(x))
    assert check_kkt(graph, x, tol=KKT_TOL).is_kkt


def _short_dots_ignore_zero_padding() -> bool:
    """Whether a dot of fewer than 16 entries keeps its bits when zeros
    are interleaved with its terms: true where BLAS adds the terms one
    after another, false where it splits them into SIMD lanes."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        size = int(rng.integers(2, 16))
        a, b = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-6, 7, (2, size))
        at = np.sort(rng.choice(15, size, replace=False))
        padded_a, padded_b = np.zeros(15), np.zeros(15)
        padded_a[at], padded_b[at] = a, b
        if padded_a @ padded_b != a @ b:
            return False
    return True


#: On graphs under 16 vertices the two cores take the same steps only
#: where the oracle's zero-padded dots keep their bits; elsewhere their
#: objectives agree to coordinate descent's stopping tolerance, as on
#: larger graphs.
SMALL_GRAPH_REL = 1e-12 if _short_dots_ignore_zero_padding() else 1e-6


class TestFullWidthOracle:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(planted_cases())
    def test_vertex_solver_matches_oracle(self, graph):
        assert graph.num_vertices < 16
        solve = csr_vertex_solver(graph)
        oracle = _oracle_solver(graph)
        for vertex in sorted(graph.vertices(), key=repr):
            x, objective, errors = solve(graph, vertex)
            expected_x, expected, expected_errors = oracle(graph, vertex)
            assert set(x) == set(expected_x)
            assert objective == pytest.approx(
                expected, rel=SMALL_GRAPH_REL, abs=1e-300
            )
            assert errors == expected_errors
            _assert_kkt_positive_clique(graph, x)
            _assert_kkt_positive_clique(graph, expected_x)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_initializations_match_oracle_on_larger_graphs(self, seed):
        graph = random_signed_graph(40, 0.2, seed=seed).positive_part()
        found = solve_all_initializations(graph, backend="sparse").best
        expected = solve_all_initializations(
            graph, solver=_oracle_solver(graph)
        ).best
        assert found.support == expected.support
        assert found.objective == pytest.approx(expected.objective, rel=1e-6)
        _assert_kkt_positive_clique(graph, found.x)
