"""Incremental streaming DCS — serve contrast answers over edge events.

The batch pipeline answers "what changed between these two graphs?";
this package answers it *continuously*: a live network emits
:class:`~repro.stream.events.EdgeEvent` observations, and the
:class:`~repro.stream.engine.StreamingDCSEngine` maintains the
expectation graph, the difference graph, and the DCS answer by deltas
instead of per-step rebuilds.

Data flow::

    EdgeEvent ──► SlidingWindowAccumulator ──► difference deltas
                      (window sums by             │
                       change-point segments)     ▼
                                           touched vertices
                                                  │
                                                  ▼
                          clean → cached answer / dirty → full solve
                                                  │
                                                  ▼
                                      StreamAlert ──► AlertLog / JSON

Entry points: :class:`StreamingDCSEngine` (the engine),
:func:`snapshot_recompute` (the naive full-rebuild reference used for
parity gating), :func:`read_events` / :func:`write_events` (the
``repro stream`` file format).
"""

from repro.stream.alerts import (
    SOURCE_CACHE,
    SOURCE_SOLVE,
    AlertLog,
    StreamAlert,
    alert_keys,
)
from repro.stream.engine import (
    EngineStats,
    SolveOutcome,
    StreamingDCSEngine,
    replay_events,
    snapshot_recompute,
    solve_difference,
)
from repro.stream.events import (
    EdgeEvent,
    EventLog,
    edge_key,
    events_between,
    group_by_step,
    read_events,
    write_events,
)
from repro.stream.window import SlidingWindowAccumulator

__all__ = [
    "SOURCE_CACHE",
    "SOURCE_SOLVE",
    "AlertLog",
    "StreamAlert",
    "alert_keys",
    "EngineStats",
    "SolveOutcome",
    "StreamingDCSEngine",
    "replay_events",
    "snapshot_recompute",
    "solve_difference",
    "EdgeEvent",
    "EventLog",
    "edge_key",
    "events_between",
    "group_by_step",
    "read_events",
    "write_events",
    "SlidingWindowAccumulator",
]
