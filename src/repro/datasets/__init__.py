"""Synthetic datasets substituting the paper's offline-unavailable data.

Each generator reproduces the *structure* the corresponding experiment
exercises (see DESIGN.md section 3 for the substitution rationale):

* :mod:`~repro.datasets.synthetic_dblp` — DBLP / DBLP-C co-author
  snapshots with planted emerging/disappearing groups;
* :mod:`~repro.datasets.synthetic_text` — DM paper-title corpus and
  keyword association graphs;
* :mod:`~repro.datasets.synthetic_wiki` — Wikipedia editor interactions;
* :mod:`~repro.datasets.synthetic_douban` — Douban social + ratings;
* :mod:`~repro.datasets.synthetic_actor` — Actor collaborations;
* :mod:`~repro.datasets.registry` — the 16 Table II rows by name;
* :mod:`~repro.datasets.streaming` — planted-burst event workloads
  (for :class:`~repro.stream.engine.StreamingDCSEngine`).
"""

from repro.datasets.registry import BUILDERS, build_all
from repro.datasets.synthetic_actor import ActorDataset, actor_network
from repro.datasets.synthetic_dblp import (
    CoauthorDataset,
    coauthor_snapshots,
    dblp_c_snapshots,
)
from repro.datasets.synthetic_douban import (
    DoubanDataset,
    douban_network,
    interest_graph,
    jaccard,
    two_hop_pairs,
)
from repro.datasets.synthetic_text import (
    DEFAULT_TOPICS,
    TextDataset,
    association_graph,
    keyword_corpus,
)
from repro.datasets.streaming import EventStream, burst_event_stream
from repro.datasets.synthetic_wiki import WikiDataset, wiki_interactions

__all__ = [
    "BUILDERS",
    "build_all",
    "ActorDataset",
    "actor_network",
    "CoauthorDataset",
    "coauthor_snapshots",
    "dblp_c_snapshots",
    "DoubanDataset",
    "douban_network",
    "interest_graph",
    "jaccard",
    "two_hop_pairs",
    "DEFAULT_TOPICS",
    "TextDataset",
    "association_graph",
    "keyword_corpus",
    "WikiDataset",
    "wiki_interactions",
    "EventStream",
    "burst_event_stream",
]
