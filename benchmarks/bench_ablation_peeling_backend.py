"""Ablation — greedy-peeling backend: indexed heap, segment tree, sparse.

The paper suggests a segment tree [Bentley 1977] for locating the
minimum-degree vertex; an addressable binary heap achieves the same
``O((n+m) log n)`` bound.  The ``sparse`` backend peels with a lazy
``heapq`` in a scalar loop over a frozen CSR adjacency; its CSR is
built once, outside the timed call, as
:class:`~repro.engine.prepared.PreparedGraph` shares it across solves.
This bench times all three backends on the largest difference graph and
asserts they peel to the same prefix and density.
"""

from __future__ import annotations

import pytest

from benchmarks._harness import dblp_c_difference_graphs, emit
from repro.graph.sparse import CSRAdjacency
from repro.peeling.greedy import greedy_peel


@pytest.fixture(scope="module")
def gd():
    return dblp_c_difference_graphs()["Weighted"]


@pytest.fixture(scope="module")
def csr(gd):
    return CSRAdjacency.from_graph(gd)


def test_peel_heap_backend(benchmark, gd):
    result = benchmark(greedy_peel, gd, "heap")
    assert result.subset


def test_peel_segment_tree_backend(benchmark, gd):
    result = benchmark(greedy_peel, gd, "segment_tree")
    assert result.subset


def test_peel_sparse_backend(benchmark, gd, csr):
    result = benchmark(greedy_peel, gd, "sparse", csr)
    assert result.subset


def test_backends_agree(benchmark, gd, csr):
    results = benchmark.pedantic(
        lambda: {
            "heap": greedy_peel(gd, backend="heap"),
            "segment tree": greedy_peel(gd, backend="segment_tree"),
            "sparse": greedy_peel(gd, backend="sparse", adjacency=csr),
        },
        rounds=1,
        iterations=1,
    )
    rows = "".join(
        f"  {name:<13}: density {result.density:.4f}, |S| = {len(result.subset)}\n"
        for name, result in results.items()
    )
    emit(
        "ablation_peeling_backend",
        f"Peeling backend ablation (DBLP-C Weighted GD, n = {gd.num_vertices}, "
        f"m = {gd.num_edges})\n"
        + rows
        + "Subsets must agree and densities match up to float summation\n"
        "order; timing columns come from the pytest-benchmark table of\n"
        "this module.",
        data={
            name: {"density": result.density, "subset_size": len(result.subset)}
            for name, result in results.items()
        },
    )
    heap = results["heap"]
    for result in results.values():
        assert result.subset == heap.subset
        assert result.density == pytest.approx(heap.density)
