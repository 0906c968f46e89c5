"""Incremental streaming DCS engine.

The serving loop of the paper's anomaly use case: ingest
:class:`~repro.stream.events.EdgeEvent` observations, maintain the
expectation/difference machinery by deltas
(:class:`~repro.stream.window.SlidingWindowAccumulator`), track which
vertices' incident difference weights moved since the last solve, and
answer "what is the densest contrast subgraph *right now*" without
recomputing from scratch.

Its answer is the ranking of the last solve: the best ``k`` strictly
positive solutions, ``k=1`` (the default, Section I) or the paper's
Section VII top-k direction for ``k>1``.  Every solve goes through the
engine envelope (:func:`solve_difference`); alerts carry the rank-0
answer.

Solve scheduling
----------------

One schedule, answer-faithful to batch recompute — same alert subsets,
scores equal up to float summation order:

* **clean step** → the difference graph is unchanged since the last
  solve, so the previous answer is provably still the answer; reuse it
  (``source="cache"``).
* **dirty step** → run the full solver, but only on the *active
  subgraph* (vertices with at least one nonzero difference edge) — the
  rest of the universe is isolated in ``GD`` and cannot join a densest
  subgraph candidate.

:func:`snapshot_recompute` is the naive reference: materialise every
step's snapshot, rebuild the window mean and the difference graph from
scratch, full solve every step.  The stream and session gates hold the
engine's alerts to it, and the benchmark gates the engine's speedup
against it *with identical alert sets*.  A stream of whole snapshots
reaches the engine through :func:`~repro.stream.events.events_between`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.difference import difference_graph, mean_graph
from repro.core.topk import RankedDCS
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.engine.registry import get_backend
from repro.exceptions import InputMismatchError, VertexNotFound
from repro.graph.graph import Graph, Vertex
from repro.stream.alerts import (
    SOURCE_CACHE,
    SOURCE_SOLVE,
    AlertLog,
    StreamAlert,
)
from repro.stream.events import EdgeEvent
from repro.stream.window import SlidingWindowAccumulator

Measure = str  # "average_degree" | "affinity"

#: Difference weights at or below this magnitude are treated as no edge.
#: Rebuilt window means carry float-summation noise on stable edges
#: (``(w + w + w) / 3 != w``); pruning makes the incremental and naive
#: difference graphs agree on which edges *exist*.
PRUNE_EPS = 1e-9


@dataclass(frozen=True)
class SolveOutcome:
    """One strictly positive answer a solve of the difference graph
    produced."""

    subset: FrozenSet[Vertex]
    score: float

    @property
    def empty(self) -> bool:
        return not self.subset


EMPTY_OUTCOME = SolveOutcome(subset=frozenset(), score=0.0)


def _rank_key(outcome: SolveOutcome) -> Tuple[float, int, str]:
    """Best first; equal scores rank by subset size, then by the repr
    of the sorted subset, so ties never depend on solver order."""
    subset = outcome.subset
    return (-outcome.score, len(subset), repr(sorted(subset, key=repr)))


def solve_difference(
    diff: Graph,
    measure: Measure,
    backend: str = "python",
    tol_scale: float = 1e-2,
    k: int = 1,
    strategy: str = "vertices",
) -> List[SolveOutcome]:
    """Solve DCS on a (maintained or rebuilt) difference graph.

    Shared by the engine and the naive recompute path, so both sides of
    every parity check run literally the same solver on the same
    semantics: restrict to the active subgraph (isolated vertices cannot
    be part of a positive-density answer), then solve through the
    engine's shared result envelope — DCSGreedy (``average_degree``) or
    NewSEA on ``GD+`` (``affinity``), top-k when ``k > 1`` — with one
    :class:`~repro.engine.prepared.PreparedGraph` owning the positive
    part (KKT reporting is skipped: this is the per-step hot path).
    Returns the strictly positive answers, at most *k*, best first with
    ties broken on the subset (:func:`_rank_key`); none for a
    difference graph with no edges (or no positive edge under
    ``affinity``).  The answers are distinct subsets: top-k DCSGreedy
    with vertex removal returns disjoint ones, a subset repeated under
    edge removal has lost its induced edges (density 0, filtered), and
    top-k NewSEA ranks deduplicated solutions.
    """
    if measure not in ("average_degree", "affinity"):
        raise ValueError(f"unknown measure {measure!r}")
    active = [u for u in diff.vertices() if diff.unweighted_degree(u) > 0]
    if not active:
        return []
    prepared = PreparedGraph(diff.subgraph(active))
    if measure == "affinity" and prepared.gd_plus.num_edges == 0:
        return []
    result = solve(
        SolveRequest(
            measure=measure,
            backend=backend,
            k=k,
            strategy=strategy,
            tol_scale=tol_scale,
            check_kkt=False,
        ),
        prepared,
    )
    answers = [
        SolveOutcome(subset=frozenset(item.subset), score=item.objective)
        for item in result.ranked
        if item.objective > 0.0
    ]
    answers.sort(key=_rank_key)
    return answers


@dataclass
class EngineStats:
    """Counters proving the incremental machinery is actually engaged."""

    steps: int = 0
    events: int = 0
    state_changes: int = 0
    diff_edits: int = 0
    full_solves: int = 0
    cache_hits: int = 0


#: How many recent per-step profiles an engine retains.
STEP_PROFILE_CAPACITY = 64


@dataclass(frozen=True)
class StepProfile:
    """One answered step's solve-scheduling record.

    Captured *before* the answer clears the touched set, so ``touched``
    is what the scheduler saw when it chose between cache reuse and a
    full solve.  These are the per-step phase stats the observability
    layer ships — cheap enough (one tiny frozen record per answered
    step) to collect unconditionally, unlike span tracing, which stays
    off the per-step hot path.
    """

    step: int
    #: where the answer came from: ``cache`` | ``solve``
    source: str
    #: vertices whose difference weights moved since the last solve
    touched: int
    #: wall seconds the scheduling decision + solve took
    seconds: float
    #: whether the step emitted an alert (score above the floor)
    emitted: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "source": self.source,
            "touched": self.touched,
            "seconds": self.seconds,
            "emitted": self.emitted,
        }


class StreamingDCSEngine:
    """Maintain DCS answers over a live stream of edge events.

    Parameters
    ----------
    universe:
        The fixed vertex set of the DCS problem (the paper's ``V``).
        Events touching unknown vertices raise :class:`VertexNotFound`.
    window:
        Number of recent steps forming the expectation (window mean).
    measure:
        ``"average_degree"`` (DCSGreedy) or ``"affinity"`` (NewSEA).
    warmup:
        Steps to observe before emitting alerts (default: *window*).
    backend:
        ``"python"`` or ``"sparse"`` — forwarded to the solvers.  The
        maintained difference graph is the same on every backend.
    min_score:
        Alerts are emitted only for answers scoring strictly above this.
    k:
        How many answers each dirty step keeps: :func:`solve_difference`
        runs the top-k solvers when ``k>1``, and :meth:`current_topk`
        exposes the ranking; ``k=1`` (default) is its one-entry case.
        Emitted alerts always carry the rank-0 answer.
    topk_strategy:
        Removal strategy between top-k DCSGreedy rounds when ``k>1``
        and the measure is ``average_degree`` (see
        :func:`~repro.core.topk.top_k_dcsad`).
    """

    def __init__(
        self,
        universe: Iterable[Vertex],
        window: int = 5,
        measure: Measure = "average_degree",
        warmup: Optional[int] = None,
        backend: str = "python",
        min_score: float = 0.0,
        tol_scale: float = 1e-2,
        k: int = 1,
        topk_strategy: str = "vertices",
    ) -> None:
        if measure not in ("average_degree", "affinity"):
            raise ValueError(f"unknown measure {measure!r}")
        # Unknown names, missing dependencies and solver-incapable
        # backends all fail here — never at some later dirty step.
        if measure == "average_degree":
            get_backend(backend).require_capabilities("peel")
        else:
            get_backend(backend).require_capabilities(
                "initialization_plan", "vertex_solver"
            )
        if k < 1:
            raise ValueError("k must be positive")
        if not (math.isfinite(tol_scale) and tol_scale > 0):
            raise ValueError(
                f"tol_scale must be a finite positive number, got {tol_scale!r}"
            )
        if topk_strategy not in ("vertices", "edges"):
            raise ValueError(f"unknown removal strategy {topk_strategy!r}")
        self.universe: Set[Vertex] = set(universe)
        if not self.universe:
            raise ValueError("universe must not be empty")
        #: the universe in repr order, sorted once: python NewSEA's
        #: float sums follow the difference graph's vertex order, so
        #: fixing it here makes every answer independent of the
        #: container the universe arrived in
        self._order = sorted(self.universe, key=repr)
        self.window = window
        self.measure = measure
        self.warmup = window if warmup is None else max(1, warmup)
        self.backend = backend
        self.min_score = min_score
        self.tol_scale = tol_scale
        self.k = k
        self.topk_strategy = topk_strategy

        self._accumulator = SlidingWindowAccumulator(window)
        #: vertices whose incident difference weights moved since the
        #: last solve; while any is, the last answer may be stale
        self._touched: Set[Vertex] = set()
        self.stats = EngineStats()
        self._step_profiles: Deque[StepProfile] = deque(
            maxlen=STEP_PROFILE_CAPACITY
        )
        #: the last solve's answers, best first (None before any solve)
        self._ranked: Optional[List[SolveOutcome]] = None

        self._diff = Graph()
        self._diff.add_vertices(self._order)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def step(self) -> int:
        """Index of the open (not yet closed) step."""
        return self._accumulator.steps_closed

    @property
    def difference(self) -> Graph:
        """The maintained difference graph (read-only by convention)."""
        return self._diff

    @property
    def accumulator(self) -> SlidingWindowAccumulator:
        """The underlying window accumulator (for tests/diagnostics)."""
        return self._accumulator

    def step_profiles(self) -> List[StepProfile]:
        """The retained recent per-step records, oldest first."""
        return list(self._step_profiles)

    @property
    def last_step_profile(self) -> Optional[StepProfile]:
        """The most recent answered step's record (None before any)."""
        return self._step_profiles[-1] if self._step_profiles else None

    def phase_stats(self) -> Dict[str, Any]:
        """The solve-scheduling phase breakdown, JSON-ready.

        Aggregate counters (how often each scheduling path fired) plus
        the last answered step's :class:`StepProfile` — the shape the
        service's per-session alerts route and ``/metrics`` consume.
        """
        stats = self.stats
        last = self.last_step_profile
        return {
            "steps": stats.steps,
            "events": stats.events,
            "full_solves": stats.full_solves,
            "cache_hits": stats.cache_hits,
            "dirty": {"touched": len(self._touched)},
            "last_step": last.to_dict() if last is not None else None,
        }

    def current_topk(self) -> List[RankedDCS]:
        """The ranking as of the last answered step: every score is
        strictly positive (empty before the first answer)."""
        return [
            RankedDCS(rank, set(outcome.subset), outcome.score)
            for rank, outcome in enumerate(self._ranked or ())
        ]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: EdgeEvent) -> List[StreamAlert]:
        """Apply one event, closing any steps its timestamp skips past.

        Returns the alerts emitted by the steps that closed (often
        none).  Events must arrive in non-decreasing timestamp order.
        """
        if event.u not in self.universe:
            raise VertexNotFound(event.u)
        if event.v not in self.universe:
            raise VertexNotFound(event.v)
        if event.t < self.step:
            raise InputMismatchError(
                f"event at t={event.t} arrived after step {self.step} opened"
            )
        alerts = self.advance_to(event.t)
        self.stats.events += 1
        if self._accumulator.observe(event.key, event.w):
            self.stats.state_changes += 1
        return alerts

    def advance_to(self, step: int) -> List[StreamAlert]:
        """Close steps (emitting alerts) until *step* is the open step."""
        alerts: List[StreamAlert] = []
        while self.step < step:
            alert = self._close_step()
            if alert is not None:
                alerts.append(alert)
        return alerts

    def run(
        self, events: Iterable[EdgeEvent], n_steps: Optional[int] = None
    ) -> AlertLog:
        """Ingest a whole stream; close exactly *n_steps* steps.

        Events at or beyond the *n_steps* horizon are ignored (they
        belong to steps the caller asked not to close).  Without
        *n_steps* the stream ends after the last event's step is closed.
        """
        log = AlertLog()
        last = -1
        for event in events:
            if n_steps is not None and event.t >= n_steps:
                continue
            log.extend(self.ingest(event))
            last = event.t
        target = n_steps if n_steps is not None else last + 1
        log.extend(self.advance_to(target))
        return log

    # ------------------------------------------------------------------
    # the per-step close: deltas -> touched vertices -> cache or solve
    # ------------------------------------------------------------------
    def _close_step(self) -> Optional[StreamAlert]:
        t = self.step
        deltas = self._accumulator.close_step()
        for (u, v), value in deltas.items():
            if abs(value) <= PRUNE_EPS:
                value = 0.0
            old = self._diff.weight(u, v)
            if value == old:
                continue
            self._diff.add_edge(u, v, value)
            self._touched.add(u)
            self._touched.add(v)
            self.stats.diff_edits += 1
        self.stats.steps += 1
        if t < self.warmup:
            # Pre-warmup closes still settle the deltas, but nothing is
            # solved or emitted (the expectation is not trusted yet).
            return None
        # Read before _answer(), which clears the set on a solve.
        touched = len(self._touched)
        answer_start = time.perf_counter()
        outcome, source = self._answer()
        emitted = not (outcome.empty or outcome.score <= self.min_score)
        self._step_profiles.append(
            StepProfile(
                step=t,
                source=source,
                touched=touched,
                seconds=time.perf_counter() - answer_start,
                emitted=emitted,
            )
        )
        if not emitted:
            return None
        return StreamAlert(
            step=t,
            subset=outcome.subset,
            score=outcome.score,
            measure=self.measure,
            source=source,
        )

    def _answer(self) -> Tuple[SolveOutcome, str]:
        """Reuse the last answer on a clean step; otherwise solve the
        maintained difference and keep its ranking."""
        if self._ranked is not None and not self._touched:
            self.stats.cache_hits += 1
            source = SOURCE_CACHE
        else:
            self._ranked = solve_difference(
                self._diff,
                self.measure,
                backend=self.backend,
                tol_scale=self.tol_scale,
                k=self.k,
                strategy=self.topk_strategy,
            )
            self.stats.full_solves += 1
            self._touched.clear()
            source = SOURCE_SOLVE
        best = self._ranked[0] if self._ranked else EMPTY_OUTCOME
        return best, source


def replay_events(
    log,
    n_steps: Optional[int] = None,
    universe: Optional[Iterable[Vertex]] = None,
    **engine_params,
) -> Tuple[AlertLog, "StreamingDCSEngine"]:
    """One-shot replay: build an engine, run a whole event log, return
    ``(alerts, engine)``.

    *log* is an :class:`~repro.stream.events.EventLog` (its declared
    universe is used unless *universe* overrides it).  All remaining
    keyword arguments configure :class:`StreamingDCSEngine`.  This is
    what ``repro stream`` runs, and the reference a stream session's
    feed is tested against; the finished engine carries the counters
    (``engine.stats``) and the last ranking (:meth:`current_topk`).
    """
    members = log.universe if universe is None else universe
    engine = StreamingDCSEngine(members, **engine_params)
    alerts = engine.run(log.events, n_steps=n_steps)
    return alerts, engine


# ----------------------------------------------------------------------
# the naive reference: full snapshot recompute, every step
# ----------------------------------------------------------------------
def snapshot_recompute(
    events: Iterable[EdgeEvent],
    universe: Iterable[Vertex],
    n_steps: Optional[int] = None,
    window: int = 5,
    measure: Measure = "average_degree",
    warmup: Optional[int] = None,
    backend: str = "python",
    min_score: float = 0.0,
    tol_scale: float = 1e-2,
) -> AlertLog:
    """Per-step snapshot recompute — the naive windowed-contrast loop.

    Every step materialises the full snapshot, rebuilds the window mean
    with :func:`~repro.core.difference.mean_graph`, rebuilds the
    difference graph with
    :func:`~repro.core.difference.difference_graph`, and runs the full
    solver on *backend*.  ``O(window * m)`` per step regardless of how
    few edges changed — the baseline the incremental engine is gated
    against (same :func:`solve_difference`, so alert parity is a
    property of the *maintenance*, which is the claim under test).
    """
    members = set(universe)
    if not members:
        raise ValueError("universe must not be empty")
    if warmup is None:
        warmup = window
    warmup = max(1, warmup)

    state = Graph()
    # Repr order, as the incremental engine keeps it: the answers do
    # not depend on the universe's container.
    state.add_vertices(sorted(members, key=repr))
    history: Deque[Graph] = deque(maxlen=window)
    log = AlertLog()

    grouped: Dict[int, List[EdgeEvent]] = {}
    last = -1
    for event in events:
        if event.u not in members:
            raise VertexNotFound(event.u)
        if event.v not in members:
            raise VertexNotFound(event.v)
        grouped.setdefault(event.t, []).append(event)
        last = max(last, event.t)
    total_steps = n_steps if n_steps is not None else last + 1

    for step in range(total_steps):
        for event in grouped.get(step, ()):
            state.add_edge(event.u, event.v, event.w)
        if history and step >= warmup:
            expected = mean_graph(history)
            diff = difference_graph(expected, state)
            diff = diff.map_weights(
                lambda w: 0.0 if abs(w) <= PRUNE_EPS else w
            )
            answers = solve_difference(
                diff, measure, backend=backend, tol_scale=tol_scale
            )
            if answers and answers[0].score > min_score:
                log.append(
                    StreamAlert(
                        step=step,
                        subset=answers[0].subset,
                        score=answers[0].score,
                        measure=measure,
                        source=SOURCE_SOLVE,
                    )
                )
        history.append(state.copy())
    return log
