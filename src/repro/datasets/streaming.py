"""Planted-burst *event* workloads for the streaming DCS engine.

The "emerging traffic hotspot" scenario of the paper's introduction,
as a live network would report it: instead of re-materialising every
snapshot, the generator emits the
:class:`~repro.stream.events.EdgeEvent` stream — a full observation of
the base topology at step 0, sparse noisy re-observations afterwards
(most of the network is *quiet* most of the time), and a planted
cluster whose pairwise strengths surge during a chosen interval and
return to baseline afterwards.

That sparsity is the point: per step only a small fraction of edges
carries an event, so the incremental engine's per-step work is tiny
while a naive snapshot recompute still pays ``O(window * m)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.graph.generators import gnp_graph
from repro.graph.graph import Graph
from repro.stream.events import EdgeEvent, EventLog


@dataclass
class EventStream:
    """An event workload plus its anomaly ground truth."""

    log: EventLog = field(repr=False)
    universe: List[str]
    n_steps: int
    anomaly_members: Set[str] = field(default_factory=set)
    anomaly_start: int = 0
    anomaly_end: int = 0  # exclusive

    @property
    def n_events(self) -> int:
        return len(self.log.events)

    def is_anomalous_step(self, step: int) -> bool:
        """Whether the anomaly is active at *step*."""
        return self.anomaly_start <= step < self.anomaly_end

    def snapshots(self) -> List[Graph]:
        """Replay the events into per-step snapshot graphs (O(steps * m)).

        The materialised equivalent of the stream — what a snapshot
        consumer would see (:func:`~repro.stream.events.events_between`
        turns it back into events).  Used by parity tests; the engine
        never needs this.
        """
        state = Graph()
        state.add_vertices(self.universe)
        grouped: dict = {}
        for event in self.log.events:
            grouped.setdefault(event.t, []).append(event)
        result: List[Graph] = []
        for step in range(self.n_steps):
            for event in grouped.get(step, ()):
                state.add_edge(event.u, event.v, event.w)
            result.append(state.copy())
        return result


def _vertex(index: int) -> str:
    return f"node{index:04d}"


def burst_event_stream(
    n_vertices: int = 120,
    n_steps: int = 30,
    base_p: float = 0.06,
    reobserve_p: float = 0.02,
    noise: float = 0.25,
    anomaly_size: int = 6,
    anomaly_start: int = 12,
    anomaly_duration: int = 3,
    anomaly_boost: Tuple[float, float] = (3.0, 5.0),
    seed: int = 0,
) -> EventStream:
    """Generate the planted-burst event workload.

    Step 0 observes every base edge at its baseline strength.  At each
    later step every base edge is independently re-observed with
    probability *reobserve_p* at ``baseline + U(-noise, noise)``
    (floored at 0.1) — background churn.  During
    ``[anomaly_start, anomaly_start + anomaly_duration)`` every internal
    pair of the anomaly cluster is observed at
    ``baseline + U(*anomaly_boost)`` (re-drawn per step), and at the
    step after the burst ends each pair is observed back at its
    baseline — so the anomaly is a transient surge, exactly the
    "emerging traffic hotspot" of the paper's introduction.
    """
    if anomaly_size > n_vertices:
        raise ValueError("anomaly cannot exceed the vertex count")
    anomaly_end = anomaly_start + anomaly_duration
    if anomaly_end >= n_steps:
        raise ValueError("the burst (plus its reset step) must end within the stream")
    rng = random.Random(seed)
    names = [_vertex(i) for i in range(n_vertices)]
    base_numeric = gnp_graph(
        n_vertices,
        base_p,
        seed=rng.randrange(1 << 30),
        weight=lambda r: r.uniform(0.5, 2.5),
    )
    base = Graph()
    base.add_vertices(names)
    for u, v, weight in base_numeric.edges():
        base.add_edge(names[u], names[v], weight)
    base_edges = sorted(
        ((min(u, v), max(u, v), w) for u, v, w in base.edges()),
    )

    members = set(rng.sample(names, anomaly_size))
    ordered_members = sorted(members)

    events: List[EdgeEvent] = []
    for u, v, weight in base_edges:
        events.append(EdgeEvent(t=0, u=u, v=v, w=weight))
    for step in range(1, n_steps):
        for u, v, weight in base_edges:
            if rng.random() < reobserve_p:
                observed = max(0.1, weight + rng.uniform(-noise, noise))
                events.append(EdgeEvent(t=step, u=u, v=v, w=observed))
        if anomaly_start <= step < anomaly_end:
            for i, u in enumerate(ordered_members):
                for v in ordered_members[i + 1 :]:
                    surged = base.weight(u, v) + rng.uniform(*anomaly_boost)
                    events.append(EdgeEvent(t=step, u=u, v=v, w=surged))
        elif step == anomaly_end:
            # The surge subsides: every cluster pair is re-observed at
            # its baseline (0 deletes pairs that had no base edge).
            for i, u in enumerate(ordered_members):
                for v in ordered_members[i + 1 :]:
                    events.append(EdgeEvent(t=step, u=u, v=v, w=base.weight(u, v)))

    log = EventLog(events=events, declared=set(names))
    return EventStream(
        log=log,
        universe=names,
        n_steps=n_steps,
        anomaly_members=members,
        anomaly_start=anomaly_start,
        anomaly_end=anomaly_end,
    )
