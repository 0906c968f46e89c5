"""Property-based tests for the extension modules (topk, monitor, flows)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def positive_graphs(draw, max_n=12):
    """Random small positive-weight graphs."""
    n = draw(st.integers(3, max_n))
    graph = Graph()
    graph.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                weight = draw(st.floats(min_value=0.25, max_value=4.0))
                graph.add_edge(u, v, weight)
    return graph


class TestTopKProperties:
    @given(positive_graphs())
    @settings(**SETTINGS)
    def test_first_topk_equals_all_inits_best(self, graph):
        """top_k_dcsga's first answer is the all-inits optimum."""
        from repro.core.newsea import solve_all_initializations
        from repro.core.topk import top_k_dcsga

        top = top_k_dcsga(graph, k=1)
        best = solve_all_initializations(graph).best
        assert top[0].objective == pytest.approx(best.objective, abs=1e-9)

    @given(positive_graphs())
    @settings(**SETTINGS)
    def test_dcsad_removal_never_improves(self, graph):
        """Iterated removal cannot find a better answer later than the
        first (the first round sees a superset of every later graph)."""
        from repro.core.topk import top_k_dcsad

        results = top_k_dcsad(graph, k=4, strategy="vertices")
        objectives = [item.objective for item in results]
        assert objectives == sorted(objectives, reverse=True)


class TestMonitorProperties:
    @given(positive_graphs(max_n=8), st.integers(1, 4))
    @settings(**SETTINGS)
    def test_stationary_stream_scores_zero(self, graph, window):
        """Observing the identical snapshot repeatedly: the difference
        graph is empty, so the contrast must be exactly 0 (no alert,
        even with a negative floor)."""
        from repro.stream import StreamingDCSEngine
        from tests.conftest import snapshot_events

        engine = StreamingDCSEngine(
            graph.vertices(), window=window, min_score=-1.0
        )
        steps = window + 3
        alerts = engine.run(snapshot_events([graph] * steps), n_steps=steps)
        assert len(engine.step_profiles()) == 3
        assert engine.difference.num_edges == 0
        assert not alerts

    @given(positive_graphs(max_n=8))
    @settings(**SETTINGS)
    def test_mean_graph_idempotent(self, graph):
        from repro.core.difference import mean_graph

        assert mean_graph([graph]) == graph


class TestFlowBackendsProperty:
    @given(st.data())
    @settings(**SETTINGS)
    def test_dinic_equals_push_relabel(self, data):
        from repro.flow.dinic import FlowNetwork, max_flow
        from repro.flow.push_relabel import max_flow_push_relabel

        n = data.draw(st.integers(2, 6))
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and data.draw(st.booleans()):
                    cap = data.draw(st.integers(1, 9))
                    arcs.append((u, v, float(cap)))

        def build():
            network = FlowNetwork()
            network.add_node(0)
            network.add_node(n - 1)
            for u, v, cap in arcs:
                network.add_arc(u, v, cap)
            return network

        a = max_flow(build(), 0, n - 1)
        b = max_flow_push_relabel(build(), 0, n - 1)
        assert a == pytest.approx(b, abs=1e-9)


class TestGoldbergVsExactProperty:
    @given(positive_graphs(max_n=9))
    @settings(max_examples=20, deadline=None)
    def test_goldberg_matches_subset_enumeration(self, graph):
        from repro.core.exact import exact_dcsad
        from repro.flow.goldberg import densest_subgraph

        if graph.num_edges == 0:
            return
        # Float weights: the default binary-search precision is only
        # exact for integers, so request the accuracy the test asserts.
        _, flow_density = densest_subgraph(graph, precision=1e-9)
        brute = exact_dcsad(graph).density
        assert flow_density == pytest.approx(brute, abs=1e-6)
