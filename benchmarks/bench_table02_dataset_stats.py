"""Table II — statistics of the difference graphs of every dataset.

Regenerates the full 16-row table (n, m+, m-, max/min/average weight)
from the synthetic substitutes and benchmarks the statistics pass.
"""

from __future__ import annotations

from benchmarks._harness import all_named_difference_graphs, emit
from repro.analysis.stats import NamedDifferenceGraph, dataset_stats_table


def test_table02_dataset_statistics(benchmark):
    rows = all_named_difference_graphs()
    entries = [
        NamedDifferenceGraph(data, setting, gd_type, gd)
        for (data, setting, gd_type), gd in rows.items()
    ]

    def compute():
        return [entry.stats() for entry in entries]

    stats = benchmark(compute)
    table = dataset_stats_table(entries)
    emit("table02_dataset_stats", table.render())

    assert len(stats) == 16
    # Shape checks mirroring the paper's Table II:
    by_key = {
        (e.data, e.setting, e.gd_type): s for e, s in zip(entries, stats)
    }
    # Emerging/Disappearing pairs swap m+ and m-.
    emerging = by_key[("DBLP", "Weighted", "Emerging")]
    disappearing = by_key[("DBLP", "Weighted", "Disappearing")]
    assert emerging.num_positive_edges == disappearing.num_negative_edges
    # Actor graphs are positive-only.
    assert by_key[("Actor", "Weighted", "-")].num_negative_edges == 0
    # Discrete settings have small integer weight ranges.
    assert by_key[("DBLP", "Discrete", "Emerging")].max_weight <= 2
    # Interest graphs are sparser than the social graph.
    movie = by_key[("Movie", "-", "Interest-Social")]
    assert movie.num_positive_edges < movie.num_negative_edges
