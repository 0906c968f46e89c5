"""Sliding-window accumulator: per-edge window sums under event deltas.

A snapshot recompute rebuilds ``mean(history)`` and ``D = A2 - A1``
from scratch every step — ``O(window * m)`` work even when nothing
changed.  This module maintains the same quantities *incrementally*:

* The **persistent state** ``A2``: each edge keeps its last observed
  strength (events override it, ``0`` deletes).
* A per-edge **change-point history**: an edge whose strength changed
  within window reach is *active* and carries the list of
  ``(step, value)`` segments needed to evaluate its window sum exactly.
  Everything else is *stable* — its window mean equals its current
  strength by construction, so its difference weight is **exactly** 0
  and it costs nothing per step.

Closing a step therefore touches only the active edges: each window sum
is a handful of segment-overlap products, old segments expire
(insertions and expiries are both just list surgery on the change
points), and an edge whose history collapses to a single segment
*retires* back to stable with a guaranteed-zero difference — no floating
drift, because the stable case is never computed as ``(L * w) / L``.

The accumulated per-step output is the set of **difference deltas**:
``close_step`` returns the new difference weight ``A2(e) - mean(e)`` for
every active edge, which is exactly the edit list the engine applies to
its maintained difference graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.graph import Vertex

EdgeKey = Tuple[Vertex, Vertex]

#: Sentinel start for the segment that predates every closed step.
_SINCE_FOREVER = -1


class SlidingWindowAccumulator:
    """Incremental window sums for a stream of persistent edge updates.

    Usage protocol, one *step* at a time:

    1. call :meth:`observe` for each event of the open step;
    2. call :meth:`close_step`, which finalises the step, slides the
       window, and returns ``{edge_key: new difference weight}`` for
       every edge whose difference may have moved (``0.0`` entries mean
       the edge returned to stable — remove it).

    The window at the close of step ``t`` covers steps
    ``[t - L, t)`` with ``L = min(window, t)`` — the same "mean of the
    last ``window`` snapshots, fewer during warmup" convention as
    :func:`repro.stream.engine.snapshot_recompute`.
    """

    __slots__ = ("window", "_state", "_history", "_steps")

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        #: current persistent strengths (nonzero only)
        self._state: Dict[EdgeKey, float] = {}
        #: change points of active edges: [(step, value), ...]; the first
        #: segment's step may be _SINCE_FOREVER, the last value always
        #: equals the current state.
        self._history: Dict[EdgeKey, List[Tuple[int, float]]] = {}
        self._steps = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def steps_closed(self) -> int:
        """Number of closed steps; also the index of the open step."""
        return self._steps

    @property
    def active_edges(self) -> int:
        """How many edges currently carry change-point history."""
        return len(self._history)

    def state_weight(self, key: EdgeKey) -> float:
        """Current persistent strength of *key* (0 = no edge)."""
        return self._state.get(key, 0.0)

    # ------------------------------------------------------------------
    # ingestion (open step)
    # ------------------------------------------------------------------
    def observe(self, key: EdgeKey, weight: float) -> bool:
        """Record that *key* was observed at strength *weight* this step.

        Returns whether the persistent state actually changed (re-observing
        the current strength is a no-op).
        """
        step = self._steps
        old = self._state.get(key, 0.0)
        history = self._history.get(key)
        if history is None:
            if weight == old:
                return False
            self._history[key] = [(_SINCE_FOREVER, old), (step, weight)]
        elif history[-1][0] == step:
            # Second event for the same pair within one step: override.
            if weight == history[-1][1]:
                return False
            if len(history) > 1 and history[-2][1] == weight:
                history.pop()  # the override cancelled this change point
            else:
                history[-1] = (step, weight)
        else:
            if weight == history[-1][1]:
                return False
            history.append((step, weight))
        if weight == 0.0:
            self._state.pop(key, None)
        else:
            self._state[key] = weight
        return True

    # ------------------------------------------------------------------
    # step close (slide the window)
    # ------------------------------------------------------------------
    def close_step(self) -> Dict[EdgeKey, float]:
        """Finalise the open step and return the difference deltas.

        For every active edge the returned mapping holds its new
        difference weight ``state - window_mean`` (``0.0`` when the edge
        retired to stable).  Stable edges never appear: their difference
        is exactly 0 by construction.
        """
        t = self._steps
        length = min(self.window, t)
        window_start = t - length
        deltas: Dict[EdgeKey, float] = {}
        retired: List[EdgeKey] = []
        for key, history in self._history.items():
            # Expire segments that end at or before the window start.
            drop = 0
            while drop + 1 < len(history) and history[drop + 1][0] <= window_start:
                drop += 1
            if drop:
                del history[:drop]
            if len(history) == 1:
                # Constant over the window *and* no pending change point:
                # the mean equals the state exactly — retire to stable.
                deltas[key] = 0.0
                retired.append(key)
                continue
            if length == 0:
                continue  # warming up: no expectation exists yet
            total = 0.0
            for position, (start, value) in enumerate(history):
                end = history[position + 1][0] if position + 1 < len(history) else t
                overlap = min(end, t) - max(start, window_start)
                if overlap > 0:
                    total += value * overlap
            deltas[key] = self._state.get(key, 0.0) - total / length
        for key in retired:
            del self._history[key]
        self._steps = t + 1
        return deltas
