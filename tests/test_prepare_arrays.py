"""Array-first pair preparation against the dict reference.

``PreparedGraph.from_pair`` assembles ``GD``'s CSR straight from the
``(G1, G2)`` arrays (:func:`repro.core.difference.assemble_difference`),
derives ``GD+`` and the fingerprint from the arrays, and builds the
dict graphs only when something reads them.  The dict pipeline
(``difference_graph`` / ``discrete_difference_graph``, then ``flip``,
then ``cap_weights``) stays as the reference, and every artefact must
match it bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.difference import (
    DBLP_DISCRETE,
    assemble_difference,
    cap_weights,
    difference_graph,
    discrete_difference_graph,
    flip,
)
from repro.engine.prepared import PreparedGraph
from repro.graph.graph import Graph
from repro.graph.sparse import CSRAdjacency, graph_fingerprint, scipy_available


def _reference(g1, g2, alpha=1.0, flipped=False, discrete=False, cap=None):
    """The dict pipeline ``assemble_difference`` replaced."""
    if discrete:
        gd = discrete_difference_graph(
            g1, g2, DBLP_DISCRETE, require_same_vertices=False
        )
    else:
        gd = difference_graph(g1, g2, alpha=alpha, require_same_vertices=False)
    if flipped:
        gd = flip(gd)
    if cap is not None:
        gd = cap_weights(gd, cap)
    return gd


def _scipy_freeze(graph: Graph):
    """The COO freeze ``CSRAdjacency.from_graph`` ran before it read
    through ``csr_arrays``: ``(vertices, indptr, indices, data)``."""
    from scipy import sparse

    vertices = sorted(graph.vertices(), key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    rows, cols, vals = [], [], []
    for u, v, weight in graph.edges():
        rows += [index[u], index[v]]
        cols += [index[v], index[u]]
        vals += [weight, weight]
    n = len(vertices)
    matrix = sparse.csr_matrix(
        (
            np.asarray(vals, dtype=np.float64),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        ),
        shape=(n, n),
    )
    matrix.sort_indices()
    return vertices, matrix.indptr, matrix.indices, matrix.data


def _sorted_fingerprint(graph: Graph) -> str:
    """The per-edge repr sort ``graph_fingerprint`` hashed before it
    read arrays; every cache key, shard key and segment name is this."""
    digest = hashlib.sha256()
    for vertex in sorted(map(repr, graph.vertices())):
        digest.update(vertex.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    edges = sorted(
        (min(repr(u), repr(v)), max(repr(u), repr(v)), weight)
        for u, v, weight in graph.edges()
    )
    for u, v, weight in edges:
        for part in (u.encode("utf-8"), v.encode("utf-8")):
            digest.update(part)
            digest.update(b"\x00")
        digest.update(float(weight).hex().encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _assert_same_arrays(adjacency: CSRAdjacency, expected) -> None:
    vertices, indptr, indices, data = expected
    assert adjacency.vertices == vertices
    for got, want in zip(
        (adjacency.indptr, adjacency.indices, adjacency.data),
        (indptr, indices, data),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# random pairs: every transform, unequal vertex sets, int and str labels
# ----------------------------------------------------------------------
#: few distinct weights, so G1 and G2 often cancel exactly and every
#: Discrete level is reached
WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.25, 0.1, 1e-3])


@st.composite
def pairs(draw):
    labels = draw(st.sampled_from(["int", "str"]))
    n = draw(st.integers(1, 14))
    name = (lambda i: i) if labels == "int" else (lambda i: f"v{i}")
    vertices = [name(i) for i in range(n)]
    graphs = []
    for _ in range(2):
        graph = Graph()
        # Each side keeps a random subset: the assembly takes the union.
        graph.add_vertices(v for v in vertices if draw(st.booleans()))
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.integers(0, 3)) == 0:
                    graph.add_edge(vertices[i], vertices[j], draw(WEIGHTS))
        graphs.append(graph)
    discrete = draw(st.booleans())
    transform = {
        "alpha": 1.0 if discrete else draw(st.sampled_from([1.0, 0.5, 1.7, 0.0])),
        "flipped": draw(st.booleans()),
        "discrete": discrete,
        "cap": draw(st.sampled_from([None, 0.75, 2.0, 4])),
    }
    return graphs[0], graphs[1], transform


class TestSameContentSameBytes:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pairs())
    def test_every_artefact_matches_the_dict_reference(self, case):
        g1, g2, transform = case
        reference = _reference(g1, g2, **transform)
        prepared = PreparedGraph.from_pair(g1, g2, **transform)
        digest = _sorted_fingerprint(reference)
        assert prepared.fingerprint == graph_fingerprint(reference) == digest
        assert prepared.gd == reference
        assert prepared.gd_plus == reference.positive_part()
        if scipy_available():
            _assert_same_arrays(prepared.csr(), _scipy_freeze(reference))
            _assert_same_arrays(
                prepared.csr_plus(), _scipy_freeze(reference.positive_part())
            )
            _assert_same_arrays(
                CSRAdjacency.from_graph(reference), _scipy_freeze(reference)
            )

    def test_dict_graphs_are_built_in_repr_order(self):
        g1 = Graph.from_edges([("b", "a", 1.0), ("c", "b", 2.0)])
        g2 = Graph.from_edges([("c", "a", 3.0), ("b", "a", 4.0)], ["d"])
        prepared = PreparedGraph.from_pair(g1, g2)
        # The names are read from the CSR, before any dict graph exists.
        assert list(prepared.vertices()) == ["a", "b", "c", "d"]
        assert "gd=lazy" in repr(prepared)
        assert list(PreparedGraph(g2).vertices()) == list(g2.vertices())
        assert list(prepared.gd.vertices()) == ["a", "b", "c", "d"]
        assert list(prepared.gd.neighbors("b")) == ["a", "c"]
        assert list(prepared.gd_plus.neighbors("a")) == ["b", "c"]
        assert prepared.gd is prepared.gd  # one object per preparation

    def test_non_finite_difference_is_refused(self):
        g1 = Graph.from_edges([("a", "b", 10.0)])
        g2 = Graph.from_edges([("a", "b", 10.0), ("b", "c", 1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            difference_graph(g1, g2, alpha=1e308, require_same_vertices=False)
        with pytest.raises(ValueError, match="non-finite"):
            PreparedGraph.from_pair(g1, g2, alpha=1e308)

    def test_discrete_and_alpha_stay_exclusive(self):
        g1 = Graph.from_edges([("a", "b", 1.0)])
        from repro.exceptions import InputMismatchError

        with pytest.raises(InputMismatchError):
            assemble_difference(g1, g1, alpha=2.0, discrete=True)

    def test_nonpositive_cap_is_refused(self):
        g1 = Graph.from_edges([("a", "b", 1.0)])
        g2 = Graph.from_edges([("a", "b", 3.0)])
        with pytest.raises(ValueError, match="cap must be positive"):
            PreparedGraph.from_pair(g1, g2, cap=0.0)

    def test_empty_pair(self):
        prepared = PreparedGraph.from_pair(Graph(), Graph())
        assert prepared.num_vertices == prepared.num_edges == 0
        assert prepared.fingerprint == graph_fingerprint(Graph())
        assert prepared.gd == Graph() and prepared.gd_plus == Graph()


# ----------------------------------------------------------------------
# no dict work on the prepare path
# ----------------------------------------------------------------------
def _solve_large_pair(seed: int):
    """perfbench's solve-large input pair as two dict graphs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "pb_inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = inputs
    spec.loader.exec_module(inputs)
    pair = inputs.large_pair(seed)
    return inputs.to_graph(pair.n, pair.g1), inputs.to_graph(pair.n, pair.g2)


class TestNoDictOnThePreparePath:
    def test_solve_large_set_up_writes_no_dict_edge(self, monkeypatch):
        g1, g2 = _solve_large_pair(1)

        def refuse(*args, **kwargs):
            raise AssertionError("dict edge write on the prepare path")

        monkeypatch.setattr(Graph, "add_edge", refuse)
        monkeypatch.setattr(Graph, "increment_edge", refuse)
        prepared = PreparedGraph.from_pair(g1, g2)
        assert len(prepared.fingerprint) == 64
        if scipy_available():
            assert prepared.csr().num_edges == prepared.num_edges > 0
            assert (prepared.csr_plus().data > 0).all()
        # Nothing above needed the dict graphs.
        assert "gd=lazy gd_plus=lazy" in repr(prepared)
        monkeypatch.undo()
        assert prepared.gd.num_edges == prepared.num_edges
