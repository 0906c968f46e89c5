"""Tests for Dinic's max-flow against brute-force min cuts."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.flow.dinic import FlowNetwork, max_flow, min_st_cut_value


def brute_force_min_cut(edges, source, sink):
    """Minimum s-t cut by enumerating all vertex bipartitions."""
    nodes = {source, sink}
    for u, v, _ in edges:
        nodes.update((u, v))
    others = sorted(nodes - {source, sink}, key=repr)
    best = float("inf")
    for size in range(len(others) + 1):
        for chosen in itertools.combinations(others, size):
            side = {source, *chosen}
            value = sum(
                cap for u, v, cap in edges if u in side and v not in side
            )
            best = min(best, value)
    return best


class TestSmallNetworks:
    def test_single_arc(self):
        value, side = min_st_cut_value([("s", "t", 3.0)], "s", "t")
        assert value == 3.0
        assert side == {"s"}

    def test_two_parallel_paths(self):
        edges = [("s", "a", 2.0), ("a", "t", 2.0), ("s", "b", 3.0), ("b", "t", 1.0)]
        value, _ = min_st_cut_value(edges, "s", "t")
        assert value == 3.0

    def test_bottleneck_in_middle(self):
        edges = [("s", "a", 10.0), ("a", "b", 1.0), ("b", "t", 10.0)]
        value, side = min_st_cut_value(edges, "s", "t")
        assert value == 1.0
        assert side == {"s", "a"}

    def test_disconnected_sink(self):
        network = FlowNetwork()
        network.add_node("s")
        network.add_node("t")
        network.add_arc("s", "a", 5.0)
        assert max_flow(network, "s", "t") == 0.0

    def test_classic_cormen_network(self):
        edges = [
            ("s", "v1", 16.0),
            ("s", "v2", 13.0),
            ("v1", "v3", 12.0),
            ("v2", "v1", 4.0),
            ("v2", "v4", 14.0),
            ("v3", "v2", 9.0),
            ("v3", "t", 20.0),
            ("v4", "v3", 7.0),
            ("v4", "t", 4.0),
        ]
        value, _ = min_st_cut_value(edges, "s", "t")
        assert value == 23.0

    def test_undirected_edge_both_directions(self):
        network = FlowNetwork()
        network.add_undirected("s", "m", 4.0)
        network.add_undirected("m", "t", 2.5)
        assert max_flow(network, "s", "t") == 2.5

    def test_same_source_sink_rejected(self):
        network = FlowNetwork()
        network.add_node("s")
        with pytest.raises(ValueError):
            max_flow(network, "s", "s")

    def test_negative_capacity_rejected(self):
        network = FlowNetwork()
        with pytest.raises(ValueError):
            network.add_arc("a", "b", -1.0)
        with pytest.raises(ValueError):
            network.add_undirected("a", "b", -1.0)

    def test_missing_node_rejected(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 1.0)
        with pytest.raises(KeyError):
            max_flow(network, "s", "ghost")


class TestCutProperties:
    def test_cut_side_contains_source_not_sink(self):
        edges = [("s", "a", 1.0), ("a", "t", 2.0)]
        _, side = min_st_cut_value(edges, "s", "t")
        assert "s" in side
        assert "t" not in side

    def test_cut_value_equals_crossing_capacity(self):
        rng = random.Random(17)
        for trial in range(10):
            nodes = ["s", "t"] + [f"n{i}" for i in range(5)]
            edges = []
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.4:
                        edges.append((u, v, round(rng.uniform(0.5, 5.0), 2)))
            value, side = min_st_cut_value(edges, "s", "t")
            crossing = sum(
                cap for u, v, cap in edges if u in side and v not in side
            )
            assert value == pytest.approx(crossing, abs=1e-9)


class TestAgainstBruteForce:
    def test_random_networks_match_brute_force(self):
        rng = random.Random(23)
        for trial in range(12):
            nodes = ["s", "t"] + [f"n{i}" for i in range(4)]
            edges = []
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.45:
                        edges.append((u, v, float(rng.randint(1, 9))))
            value, _ = min_st_cut_value(edges, "s", "t")
            expected = brute_force_min_cut(edges, "s", "t")
            assert value == pytest.approx(expected, abs=1e-9)
