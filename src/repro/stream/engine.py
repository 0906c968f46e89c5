"""Incremental streaming DCS engine.

The serving loop of the paper's anomaly use case: ingest
:class:`~repro.stream.events.EdgeEvent` observations, maintain the
expectation/difference machinery by deltas
(:class:`~repro.stream.window.SlidingWindowAccumulator`), track which
vertices' incident difference weights moved
(:class:`DirtyRegion`), and answer "what is the densest contrast
subgraph *right now*" without recomputing from scratch.

Its answers, the *incumbents*, live in one
:class:`~repro.core.topk.IncrementalTopK` of the best ``k``: ``k=1``
(the default, Section I) is its one-entry case, ``k>1`` the paper's
Section VII top-k direction.  Every solve goes through the engine
envelope (:func:`solve_difference`); alerts carry the rank-0 answer.

Solve scheduling — the incremental driver
-----------------------------------------

``policy="exact"`` (default) is answer-faithful to batch recompute —
same alert subsets, scores equal up to float summation order:

* **clean step** → the difference graph is unchanged since the last
  solve, so the previous answer is provably still the answer; reuse it
  (``source="cache"``).
* **dirty step** → run the full solver, but only on the *active
  subgraph* (vertices with at least one nonzero difference edge) — the
  rest of the universe is isolated in ``GD`` and cannot join a densest
  subgraph candidate.

``policy="gated"`` adds the incumbent heuristics on top (trading exact
answer parity for far fewer full solves under churn).  Difference
weights move for two reasons — new *events*, and the predictable
*decay* of old contrast as the window absorbs it — and the gate treats
them differently:

* **events inside** an incumbent's closed neighbourhood → its
  structure changed: full solve, with the previous incumbents
  *warm-starting* the driver (a re-scored incumbent is kept if the
  fresh greedy answer is worse — peeling is a heuristic and must never
  regress below a carried answer).
* **events elsewhere** → the incumbents are still the local optima
  they were; their scores are refreshed by an O(|S| + vol S)
  **re-score** on the maintained difference graph, and a **local
  probe** solves only the evented neighbourhood, holding them unless
  the probe finds a challenger (→ full solve).
* **decay / drift fallbacks**: the incumbents are dropped and re-solved
  once the best re-scored contrast falls below ``hold_margin`` of the
  score that installed it, or once the cumulative evented region since
  the last full solve covers more than ``drift_ratio`` of the universe.
  An incumbent that decays to zero contrast leaves the ranking.

:func:`snapshot_recompute` is the naive reference: materialise every
step's snapshot, rebuild the window mean and the difference graph from
scratch, full solve every step — exactly what
:class:`repro.core.monitor.ContrastMonitor` does today.  The benchmark
gates the engine's speedup against it *with identical alert sets*.
"""

from __future__ import annotations

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

from repro.core.difference import difference_graph
from repro.core.monitor import mean_graph
from repro.core.topk import IncrementalTopK, RankedDCS
from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.engine.registry import get_backend
from repro.exceptions import InputMismatchError, VertexNotFound
from repro.graph.graph import Graph, Vertex
from repro.stream.alerts import (
    SOURCE_CACHE,
    SOURCE_INCUMBENT,
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
    """What a solve of the current difference graph produced.

    ``x`` carries the affinity embedding (support == subset) so a held
    incumbent can be re-scored as ``x^T D x`` on the updated difference;
    it is None for the average-degree measure.
    """

    subset: FrozenSet[Vertex]
    score: float
    x: Optional[Dict[Vertex, float]] = None

    @property
    def empty(self) -> bool:
        return not self.subset


EMPTY_OUTCOME = SolveOutcome(subset=frozenset(), score=0.0)


def solve_difference(
    diff: Graph,
    measure: Measure,
    backend: str = "python",
    tol_scale: float = 1e-2,
    seed: int = 0,
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
    Returns the strictly positive answers, best first: at most *k*, none
    for a difference graph with no edges (or no positive edge under
    ``affinity``).
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
            seed=seed,
            check_kkt=False,
        ),
        prepared,
    )
    return [
        SolveOutcome(
            subset=frozenset(item.subset),
            score=item.objective,
            x=item.embedding,
        )
        for item in result.ranked
        if item.objective > 0.0
    ]


class DirtyRegion:
    """Vertices whose incident difference weights changed since a mark.

    Difference weights move for two very different reasons, and the
    tracker separates them:

    * **Touched** (``touched_since_answer``): *any* difference-weight
      change, including the predictable shrink of an edge's contrast as
      the sliding window absorbs an old surge ("decay").  While anything
      is touched, a previously solved answer's *score* is stale — this
      horizon drives cache validity.
    * **Evented** (``evented_since_answer`` / ``evented_since_full``):
      changes caused by an actual state change (a new observation).
      Only these can create *new* contrast structure, so they drive the
      incumbent-neighbourhood gate, the local-probe region, and the
      drift fallback.
    """

    __slots__ = ("touched_since_answer", "evented_since_answer", "evented_since_full")

    def __init__(self) -> None:
        self.touched_since_answer: Set[Vertex] = set()
        self.evented_since_answer: Set[Vertex] = set()
        self.evented_since_full: Set[Vertex] = set()

    def touch(self, u: Vertex, v: Vertex) -> None:
        self.touched_since_answer.add(u)
        self.touched_since_answer.add(v)

    def event(self, u: Vertex, v: Vertex) -> None:
        self.evented_since_answer.add(u)
        self.evented_since_answer.add(v)
        self.evented_since_full.add(u)
        self.evented_since_full.add(v)

    @property
    def clean(self) -> bool:
        return not self.touched_since_answer

    def settle(self) -> None:
        """The pending changes were absorbed by an answer (hold or cache)."""
        self.touched_since_answer.clear()
        self.evented_since_answer.clear()

    def reset(self) -> None:
        """A full solve re-anchored the incumbent everywhere."""
        self.touched_since_answer.clear()
        self.evented_since_answer.clear()
        self.evented_since_full.clear()


@dataclass
class EngineStats:
    """Counters proving the incremental machinery is actually engaged."""

    steps: int = 0
    events: int = 0
    state_changes: int = 0
    diff_edits: int = 0
    full_solves: int = 0
    cache_hits: int = 0
    local_probes: int = 0
    incumbent_holds: int = 0
    rescores: int = 0
    #: full solves whose rank-0 subset changed when the carried
    #: incumbents were re-offered (no fresh answer = the empty subset)
    warm_start_wins: int = 0
    drift_fallbacks: int = 0


#: How many recent per-step profiles an engine retains.
STEP_PROFILE_CAPACITY = 64


@dataclass(frozen=True)
class StepProfile:
    """One answered step's solve-scheduling record.

    Captured *before* the answer settles or resets the dirty region, so
    the sizes describe what the scheduler actually saw when it chose
    between cache reuse, an incumbent hold, and a full solve.  These
    are the per-step phase stats the observability layer ships — cheap
    enough (one tiny frozen record per answered step) to collect
    unconditionally, unlike span tracing, which stays off the per-step
    hot path.
    """

    step: int
    #: where the answer came from: ``cache`` | ``solve`` | ``incumbent``
    source: str
    #: dirty-region sizes at decision time
    touched: int
    evented: int
    evented_since_full: int
    #: wall seconds the scheduling decision + solve took
    seconds: float
    #: whether the step emitted an alert (score above the floor)
    emitted: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "source": self.source,
            "touched": self.touched,
            "evented": self.evented,
            "evented_since_full": self.evented_since_full,
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
        maintained difference graph and incumbent re-scoring are the
        same on every backend.
    policy:
        ``"exact"`` (cache + full solve; parity with batch recompute) or
        ``"gated"`` (incumbent-neighbourhood gating, local probes,
        drift fallback).
    min_score:
        Alerts are emitted only for answers scoring strictly above this.
    drift_ratio:
        Gated policy: fraction of the universe the cumulative
        event-dirty region may reach before forcing a full solve.
    hold_margin:
        Gated policy: an incumbent is held only while its re-scored
        contrast stays above ``hold_margin`` times the score of the full
        solve that produced it; decaying past that triggers a re-solve.
    k:
        How many incumbent answers to maintain, in an
        :class:`~repro.core.topk.IncrementalTopK` of the best *k*
        strictly positive answers; ``k=1`` (default) is its one-entry
        case.  Dirty steps solve the maintained difference through
        :func:`solve_difference` (the top-k solvers when ``k>1``), the
        gated policy re-scores *every* incumbent (rank membership can
        change without a solve), and :meth:`current_topk` exposes the
        maintained ranking.  Emitted alerts always carry the rank-0
        answer.
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
        policy: str = "exact",
        min_score: float = 0.0,
        drift_ratio: float = 0.5,
        hold_margin: float = 0.5,
        tol_scale: float = 1e-2,
        prune_eps: float = PRUNE_EPS,
        seed: int = 0,
        k: int = 1,
        topk_strategy: str = "vertices",
    ) -> None:
        if measure not in ("average_degree", "affinity"):
            raise ValueError(f"unknown measure {measure!r}")
        # Unknown names, missing dependencies and solver-incapable
        # backends all fail here — never at some later dirty step.
        get_backend(backend).require_capabilities(
            "peel" if measure == "average_degree" else "new_sea"
        )
        if policy not in ("exact", "gated"):
            raise ValueError(f"unknown policy {policy!r}")
        if k < 1:
            raise ValueError("k must be positive")
        if topk_strategy not in ("vertices", "edges"):
            raise ValueError(f"unknown removal strategy {topk_strategy!r}")
        self.universe: Set[Vertex] = set(universe)
        if not self.universe:
            raise ValueError("universe must not be empty")
        self.window = window
        self.measure = measure
        self.warmup = window if warmup is None else max(1, warmup)
        self.backend = backend
        self.policy = policy
        self.min_score = min_score
        self.drift_ratio = drift_ratio
        self.hold_margin = hold_margin
        self.tol_scale = tol_scale
        self.prune_eps = prune_eps
        self.seed = seed
        self.k = k
        self.topk_strategy = topk_strategy

        self._accumulator = SlidingWindowAccumulator(window)
        self._dirty = DirtyRegion()
        self.stats = EngineStats()
        self._step_profiles: Deque[StepProfile] = deque(
            maxlen=STEP_PROFILE_CAPACITY
        )
        #: the k maintained incumbents, the answer of record;
        #: ``_cached`` mirrors their rank-0 entry (None before the first
        #: answer) and is refreshed whenever they re-sort
        self._topk = IncrementalTopK(k, min_score=0.0)
        self._cached: Optional[SolveOutcome] = None
        #: rank-0 score of the full solve that installed the incumbents
        self._anchor_score = 0.0

        self._diff = Graph()
        self._diff.add_vertices(self.universe)

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

    def state_graph(self) -> Graph:
        """Materialise the current persistent snapshot."""
        return self._accumulator.state_graph(self.universe)

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
            "incumbent_holds": stats.incumbent_holds,
            "local_probes": stats.local_probes,
            "rescores": stats.rescores,
            "drift_fallbacks": stats.drift_fallbacks,
            "warm_start_wins": stats.warm_start_wins,
            "dirty": {
                "touched": len(self._dirty.touched_since_answer),
                "evented": len(self._dirty.evented_since_answer),
                "evented_since_full": len(self._dirty.evented_since_full),
            },
            "last_step": last.to_dict() if last is not None else None,
        }

    def current_topk(self) -> List[RankedDCS]:
        """The maintained ranking as of the last answered step.

        Reads the live :class:`~repro.core.topk.IncrementalTopK`, rank
        moves of the gated policy's re-scoring included; every score is
        strictly positive (empty before the first answer).
        """
        return self._topk.as_ranked()

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
            self._dirty.event(event.u, event.v)
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
    # the per-step close: deltas -> dirty region -> solve scheduling
    # ------------------------------------------------------------------
    def _close_step(self) -> Optional[StreamAlert]:
        t = self.step
        deltas = self._accumulator.close_step()
        for (u, v), value in deltas.items():
            if abs(value) <= self.prune_eps:
                value = 0.0
            old = self._diff.weight(u, v)
            if value == old:
                continue
            self._diff.add_edge(u, v, value)
            self._dirty.touch(u, v)
            self.stats.diff_edits += 1
        self.stats.steps += 1
        if t < self.warmup:
            # Pre-warmup closes still settle the deltas, but nothing is
            # solved or emitted (the expectation is not trusted yet).
            return None
        # Dirty sizes must be read before _answer(): settling/resetting
        # the region is part of answering.
        touched = len(self._dirty.touched_since_answer)
        evented = len(self._dirty.evented_since_answer)
        since_full = len(self._dirty.evented_since_full)
        answer_start = time.perf_counter()
        outcome, source = self._answer()
        emitted = not (outcome.empty or outcome.score <= self.min_score)
        self._step_profiles.append(
            StepProfile(
                step=t,
                source=source,
                touched=touched,
                evented=evented,
                evented_since_full=since_full,
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
        if self._cached is not None and self._dirty.clean:
            self.stats.cache_hits += 1
            return self._cached, SOURCE_CACHE
        if self.policy == "exact" or self._cached is None:
            outcome = self._full_solve(warm=self.policy == "gated")
            return outcome, SOURCE_SOLVE
        return self._gated_answer()

    def _incumbents(self) -> List[SolveOutcome]:
        """The maintained answers as solve outcomes, rank order."""
        return [
            SolveOutcome(frozenset(item.subset), item.objective, item.embedding)
            for item in self._topk.as_ranked()
        ]

    def _best(self) -> SolveOutcome:
        """The rank-0 answer, or the empty outcome when none is held."""
        incumbents = self._incumbents()
        return incumbents[0] if incumbents else EMPTY_OUTCOME

    # -- exact path ----------------------------------------------------
    def _full_solve(self, warm: bool) -> SolveOutcome:
        """Full solve: replace the maintained ranking wholesale.

        With *warm* (the gated policy), the previous incumbents are
        re-scored on the updated difference and re-offered: DCSGreedy
        and NewSEA are heuristics and must never regress below a
        carried answer, which is still a valid subgraph.
        """
        outcomes = solve_difference(
            self._diff,
            self.measure,
            backend=self.backend,
            tol_scale=self.tol_scale,
            seed=self.seed,
            k=self.k,
            strategy=self.topk_strategy,
        )
        carried = self._incumbents() if warm else []
        self._topk.replace((o.subset, o.score, o.x) for o in outcomes)
        fresh = self._topk.subsets()[:1]
        for previous in carried:
            self._topk.offer(previous.subset, self._rescore(previous), previous.x)
        if self._topk.subsets()[:1] != fresh:
            self.stats.warm_start_wins += 1
        best = self._best()
        self.stats.full_solves += 1
        self._anchor_score = best.score
        self._cached = best
        self._dirty.reset()
        return best

    # -- gated path ----------------------------------------------------
    def _gated_answer(self) -> Tuple[SolveOutcome, str]:
        """The incumbent-gating decision tree.

        Full solves are forced by (in order): the cumulative event
        region outgrowing ``drift_ratio`` of the universe; no incumbent
        to hold; new events inside *any* incumbent's closed
        neighbourhood (its structure changed); the *best* re-scored
        contrast decaying below ``hold_margin`` of the anchor; or a
        local probe of the evented region beating the *k-th* re-scored
        score (a challenger need only displace the weakest incumbent to
        change the ranking).  Otherwise every incumbent is held, and
        :meth:`IncrementalTopK.rescore` installs the fresh scores and
        re-sorts — so the emitted (rank-0) answer and the cached one
        always track membership changes, even score-order flips with no
        event anywhere near an incumbent.
        """
        if (
            len(self._dirty.evented_since_full)
            > self.drift_ratio * len(self.universe)
        ):
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        incumbents = self._incumbents()
        if not incumbents:
            return self._full_solve(warm=True), SOURCE_SOLVE
        evented = self._dirty.evented_since_answer
        region: Set[Vertex] = set()
        for incumbent in incumbents:
            region |= self._closed_neighborhood(incumbent.subset)
        if evented & region:
            return self._full_solve(warm=True), SOURCE_SOLVE
        rescored = {o.subset: self._rescore(o) for o in incumbents}
        if max(rescored.values()) < self.hold_margin * self._anchor_score:
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        if evented:
            floor = min(rescored.values()) if len(rescored) >= self.k else 0.0
            if self._local_probe() > floor:
                self.stats.drift_fallbacks += 1
                return self._full_solve(warm=True), SOURCE_SOLVE
        self.stats.incumbent_holds += 1
        self._dirty.settle()
        self._topk.rescore(rescored.get)
        self._cached = self._best()
        return self._cached, SOURCE_INCUMBENT

    def _closed_neighborhood(self, subset: Iterable[Vertex]) -> Set[Vertex]:
        members = set(subset)
        closed = set(members)
        for vertex in members:
            closed.update(self._diff.neighbors(vertex))
        return closed

    def _local_probe(self) -> float:
        """The best contrast of the evented region alone (0 if none)."""
        region = self._closed_neighborhood(self._dirty.evented_since_full)
        self.stats.local_probes += 1
        answers = solve_difference(
            self._diff.subgraph(region & self.universe),
            self.measure,
            backend=self.backend,
            tol_scale=self.tol_scale,
            seed=self.seed,
        )
        return answers[0].score if answers else 0.0

    def _rescore(self, incumbent: SolveOutcome) -> float:
        """Re-evaluate a held answer's score on the current difference.

        Average degree: the exact ``W(S) / |S|`` of the held subset on
        the updated graph.  Affinity: ``x^T D x`` with the carried
        embedding — exact for the carried ``x``, a lower bound on what
        a re-optimised embedding would score.
        """
        self.stats.rescores += 1
        subset = incumbent.subset
        if self.measure == "average_degree":
            return self._diff.total_degree(subset) / len(subset)
        x = incumbent.x or {}
        score = 0.0
        for u in subset:
            xu = x.get(u, 0.0)
            if xu == 0.0:
                continue
            for v, weight in self._diff.neighbors(u).items():
                xv = x.get(v, 0.0)
                if xv != 0.0:
                    score += weight * xu * xv
        return score


def replay_events(
    log,
    n_steps: Optional[int] = None,
    universe: Optional[Iterable[Vertex]] = None,
    **engine_params,
) -> Tuple[AlertLog, EngineStats]:
    """One-shot replay: build an engine, run a whole event log, return
    ``(alerts, stats)``.

    *log* is an :class:`~repro.stream.events.EventLog` (its declared
    universe is used unless *universe* overrides it).  All remaining
    keyword arguments configure :class:`StreamingDCSEngine`.  This is
    the entry point shared by ``repro stream`` and the batch layer's
    ``stream_replay`` queries — both replay a recorded log and care only
    about the final alert set and the engine counters.
    """
    # Keep the caller's order: python NewSEA's float sums follow vertex
    # order, so a session made from the same list must get it too.
    members = list(universe) if universe is not None else list(log.universe)
    if not members:
        raise ValueError("event log declares no vertices and has no events")
    engine = StreamingDCSEngine(members, **engine_params)
    alerts = engine.run(log.events, n_steps=n_steps)
    return alerts, engine.stats


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
    prune_eps: float = PRUNE_EPS,
    seed: int = 0,
) -> AlertLog:
    """Per-step snapshot recompute — the ContrastMonitor loop over events.

    Every step materialises the full snapshot, rebuilds the window mean
    with :func:`~repro.core.monitor.mean_graph`, rebuilds the difference
    graph with :func:`~repro.core.difference.difference_graph`, and runs
    the full solver.  ``O(window * m)`` per step regardless of how few
    edges changed — the baseline the incremental engine is gated
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
    state.add_vertices(members)
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
            expected = mean_graph(history, backend=backend)
            diff = difference_graph(expected, state)
            diff = diff.map_weights(
                lambda w: 0.0 if abs(w) <= prune_eps else w
            )
            answers = solve_difference(
                diff, measure, backend=backend, tol_scale=tol_scale, seed=seed
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
