"""Tests for the SEA expansion operation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordinate_descent import coordinate_descent
from repro.core.expansion import candidate_frontier, expansion_step
from repro.graph.generators import complete_graph, random_signed_graph
from repro.graph.graph import Graph
from repro.graph.matrices import affinity_matrix, embedding_to_vector


class TestFrontier:
    def test_frontier_excludes_support(self, triangle):
        frontier = candidate_frontier(triangle, {"a"})
        assert frontier == {"b", "c"}

    def test_frontier_of_isolated_support(self):
        graph = Graph.from_edges([("a", "b", 1.0)], vertices=["z"])
        assert candidate_frontier(graph, {"z"}) == set()


class TestExpansionMechanics:
    def test_no_expansion_at_global_kkt(self):
        """Uniform on the max clique of K_n is a global optimum."""
        graph = complete_graph(5)
        x = {u: 0.2 for u in range(5)}
        step = expansion_step(graph, x)
        assert not step.expanded
        assert step.x == x

    def test_expansion_from_unit_vertex(self, triangle):
        """From e_u, Z is u's (positive) neighbourhood, f = 0 -> growth."""
        step = expansion_step(triangle, {"a": 1.0})
        assert step.expanded
        assert step.z_size == 2
        assert step.objective_after > 0.0
        assert sum(step.x.values()) == pytest.approx(1.0, abs=1e-9)

    def test_expansion_increases_objective_from_local_kkt(self):
        """After a shrink to a local KKT point, expansion must increase f
        (this is the property the loose SEA condition violates)."""
        for seed in range(10):
            gd = random_signed_graph(20, 0.4, seed=seed).positive_part()
            start = sorted(gd.vertices(), key=repr)[0]
            shrink = coordinate_descent(gd, {start: 1.0}, tol=1e-12)
            step = expansion_step(gd, shrink.x, objective=shrink.objective)
            if step.expanded:
                assert step.objective_after >= step.objective_before - 1e-12
                assert not step.decreased

    def test_simplex_preserved(self):
        for seed in range(10):
            gd = random_signed_graph(15, 0.5, seed=seed).positive_part()
            start = sorted(gd.vertices(), key=repr)[0]
            shrink = coordinate_descent(gd, {start: 1.0}, tol=1e-12)
            step = expansion_step(gd, shrink.x)
            assert sum(step.x.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v > 0 for v in step.x.values())

    def test_z_members_receive_mass(self, triangle):
        step = expansion_step(triangle, {"a": 1.0})
        assert step.x.get("b", 0.0) > 0
        assert step.x.get("c", 0.0) > 0


class TestAlgebraAgainstDense:
    """Verify the analytic tau formula against dense numpy evaluation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_step_matches_dense_quadratic(self, seed):
        gd = random_signed_graph(12, 0.6, seed=seed).positive_part()
        if gd.num_edges == 0:
            return
        start = sorted(gd.vertices(), key=repr)[0]
        shrink = coordinate_descent(gd, {start: 1.0}, tol=1e-12)
        x = shrink.x
        f = shrink.objective
        matrix, order = affinity_matrix(gd)
        dense_x = embedding_to_vector(x, order)

        # Rebuild gamma/b from the module's definitions.
        index = {v: i for i, v in enumerate(order)}
        dx = matrix @ dense_x
        gamma = {}
        for v in order:
            if x.get(v, 0.0) > 0:
                continue
            if dx[index[v]] > f + 1e-12:
                gamma[v] = dx[index[v]] - f
        step = expansion_step(gd, x, objective=f)
        if not gamma:
            assert not step.expanded
            return
        assert step.expanded
        # The new point must equal x + tau*b for some tau in (0, 1/s]:
        # recover tau from a Z entry and check f(x + tau b) == reported.
        s = sum(gamma.values())
        b = np.zeros(len(order))
        for v, value in x.items():
            b[index[v]] = -value * s
        for v, value in gamma.items():
            b[index[v]] = value
        some_z = next(iter(gamma))
        tau = step.x[some_z] / gamma[some_z]
        assert 0 < tau <= 1.0 / s + 1e-9
        moved = dense_x + tau * b
        dense_f = float(moved @ matrix @ moved)
        assert step.objective_after == pytest.approx(dense_f, abs=1e-8)
        # And tau must maximise the quadratic on (0, 1/s]: compare
        # against a grid.
        grid = np.linspace(1e-6, 1.0 / s, 200)
        values = [
            float((dense_x + t * b) @ matrix @ (dense_x + t * b)) for t in grid
        ]
        assert dense_f >= max(values) - 1e-6
