"""Incremental streaming DCS engine.

The serving loop of the paper's anomaly use case: ingest
:class:`~repro.stream.events.EdgeEvent` observations, maintain the
expectation/difference machinery by deltas
(:class:`~repro.stream.window.SlidingWindowAccumulator`), track which
vertices' incident difference weights moved
(:class:`DirtyRegion`), and answer "what is the densest contrast
subgraph *right now*" without recomputing from scratch.

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

* **events inside** the incumbent's closed neighbourhood → its
  structure changed: full solve, with the previous answer
  *warm-starting* the driver (the re-scored incumbent is kept if the
  fresh greedy answer is worse — peeling is a heuristic and must never
  regress below a carried answer).
* **events elsewhere** → the incumbent's subset is still the local
  optimum it was; its score is refreshed by an O(|S| + vol S)
  **re-score** on the maintained difference graph, and a **local
  probe** solves only the evented neighbourhood, holding the incumbent
  unless the probe finds a challenger (→ full solve).
* **decay / drift fallbacks**: the incumbent is dropped and re-solved
  once its re-scored contrast falls below ``hold_margin`` of the score
  that installed it, or once the cumulative evented region since the
  last full solve covers more than ``drift_ratio`` of the universe.

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
from repro.core.topk import (
    IncrementalTopK,
    RankedDCS,
    top_k_dcsad,
    top_k_dcsga,
)
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
) -> SolveOutcome:
    """Solve DCS on a (maintained or rebuilt) difference graph.

    Shared by the engine and the naive recompute path, so both sides of
    every parity check run literally the same solver on the same
    semantics: restrict to the active subgraph (isolated vertices cannot
    be part of a positive-density answer), then solve through the
    engine's shared result envelope — DCSGreedy (``average_degree``) or
    NewSEA on ``GD+`` (``affinity``), with one
    :class:`~repro.engine.prepared.PreparedGraph` owning the positive
    part (KKT reporting is skipped: this is the per-step hot path).
    A difference graph with no edges — or no positive edge under
    ``affinity`` — yields the empty outcome (score 0, nothing to flag).
    """
    if measure not in ("average_degree", "affinity"):
        raise ValueError(f"unknown measure {measure!r}")
    active = [u for u in diff.vertices() if diff.unweighted_degree(u) > 0]
    if not active:
        return EMPTY_OUTCOME
    sub = diff.subgraph(active)
    prepared = PreparedGraph(sub)
    if measure == "affinity" and prepared.gd_plus.num_edges == 0:
        return EMPTY_OUTCOME
    result = solve(
        SolveRequest(
            measure=measure,
            backend=backend,
            tol_scale=tol_scale,
            seed=seed,
            check_kkt=False,
        ),
        prepared,
    )
    if result.density <= 0.0:
        return EMPTY_OUTCOME
    return SolveOutcome(
        subset=frozenset(result.subset),
        score=result.density,
        x=dict(result.embedding) if result.embedding is not None else None,
    )


def solve_difference_topk(
    diff: Graph,
    measure: Measure,
    k: int,
    backend: str = "python",
    tol_scale: float = 1e-2,
    seed: int = 0,
    strategy: str = "vertices",
) -> List[SolveOutcome]:
    """Top-k solve of a difference graph, ranked best first.

    The k>1 counterpart of :func:`solve_difference`, sharing its
    active-subgraph restriction so the incremental engine and a batch
    recompute of the same window run literally the same top-k
    functions (:func:`~repro.core.topk.top_k_dcsad` /
    :func:`~repro.core.topk.top_k_dcsga`) on the same semantics.
    Returns only strictly-positive answers (possibly fewer than *k*).
    """
    if measure not in ("average_degree", "affinity"):
        raise ValueError(f"unknown measure {measure!r}")
    active = [u for u in diff.vertices() if diff.unweighted_degree(u) > 0]
    if not active:
        return []
    sub = diff.subgraph(active)
    ranked: List[RankedDCS]
    if measure == "average_degree":
        ranked = top_k_dcsad(sub, k, strategy=strategy, backend=backend)  # type: ignore[arg-type]
    else:
        prepared = PreparedGraph(sub)
        if prepared.gd_plus.num_edges == 0:
            return []
        ranked = top_k_dcsga(
            prepared.gd_plus, k, tol_scale=tol_scale, backend=backend
        )
    return [
        SolveOutcome(
            subset=frozenset(item.subset),
            score=item.objective,
            x=dict(item.embedding) if item.embedding is not None else None,
        )
        for item in ranked
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
        How many incumbent answers to maintain.  ``k=1`` (default) is
        the single-incumbent engine; ``k>1`` holds an
        :class:`~repro.core.topk.IncrementalTopK` of the best *k*
        answers — dirty steps run the batch top-k solvers on the
        maintained difference, the gated policy re-scores *every*
        incumbent (rank membership can change without a solve), and
        :meth:`current_topk` exposes the maintained ranking.  Emitted
        alerts always carry the rank-0 answer.
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
        self._cached: Optional[SolveOutcome] = None
        self._incumbent: Optional[SolveOutcome] = None
        #: the k maintained incumbents (None in the k=1 configuration);
        #: the answer of record for k>1 — ``_cached`` mirrors its rank-0
        #: entry and is refreshed whenever the structure re-sorts
        self._topk: Optional[IncrementalTopK] = (
            IncrementalTopK(k, min_score=0.0) if k > 1 else None
        )
        #: score of the full solve that installed the incumbent
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

        With ``k>1`` this reads the live
        :class:`~repro.core.topk.IncrementalTopK` — including rank
        moves the gated policy's re-scoring made without a solve.  With
        ``k=1`` it wraps the single incumbent (empty before the first
        answer).
        """
        if self._topk is not None:
            return self._topk.as_ranked()
        base = self._incumbent if self._incumbent is not None else self._cached
        if base is None or base.empty:
            return []
        return [
            RankedDCS(
                rank=0,
                subset=set(base.subset),
                objective=base.score,
                embedding=dict(base.x) if base.x is not None else None,
            )
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
        alerts: List[StreamAlert] = []
        while self.step < event.t:
            alert = self._close_step()
            if alert is not None:
                alerts.append(alert)
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
        if self.policy == "exact" or self._incumbent is None:
            outcome = self._full_solve(warm=self.policy == "gated")
            return outcome, SOURCE_SOLVE
        return self._gated_answer()

    # -- exact path ----------------------------------------------------
    def _full_solve(self, warm: bool) -> SolveOutcome:
        if self._topk is not None:
            return self._full_solve_topk(warm)
        outcome = solve_difference(
            self._diff,
            self.measure,
            backend=self.backend,
            tol_scale=self.tol_scale,
            seed=self.seed,
        )
        if warm and self._incumbent is not None and not self._incumbent.empty:
            rescored = self._rescore(self._incumbent)
            if rescored is not None and rescored.score > outcome.score:
                # Greedy/NewSEA are heuristics: never regress below the
                # carried answer, which is still a valid subgraph.
                outcome = rescored
                self.stats.warm_start_wins += 1
        self.stats.full_solves += 1
        self._incumbent = outcome
        self._anchor_score = outcome.score
        self._cached = outcome
        self._dirty.reset()
        return outcome

    def _full_solve_topk(self, warm: bool) -> SolveOutcome:
        """Full top-k solve: replace the maintained ranking wholesale.

        With *warm* (the gated policy), the previous incumbents are
        re-scored on the updated difference and re-offered — the top-k
        analogue of the k=1 warm start: the greedy/NewSEA rounds are
        heuristics and must never regress below a carried answer that
        still scores better than what they found.
        """
        assert self._topk is not None
        outcomes = solve_difference_topk(
            self._diff,
            self.measure,
            self.k,
            backend=self.backend,
            tol_scale=self.tol_scale,
            seed=self.seed,
            strategy=self.topk_strategy,
        )
        carried = self._topk_outcomes() if warm else []
        self._topk.replace((o.subset, o.score, o.x) for o in outcomes)
        fresh_best = outcomes[0].subset if outcomes else None
        for previous in carried:
            rescored = self._rescore(previous)
            if rescored is not None:
                self._topk.offer(rescored.subset, rescored.score, rescored.x)
        best = self._topk_best_outcome()
        if fresh_best is not None and best.subset != fresh_best:
            self.stats.warm_start_wins += 1
        self.stats.full_solves += 1
        self._incumbent = best
        self._anchor_score = best.score
        self._cached = best
        self._dirty.reset()
        return best

    def _topk_outcomes(self) -> List[SolveOutcome]:
        """The maintained top-k entries as solve outcomes, rank order."""
        assert self._topk is not None
        return [
            SolveOutcome(
                subset=frozenset(item.subset),
                score=item.objective,
                x=item.embedding,
            )
            for item in self._topk.as_ranked()
        ]

    def _topk_best_outcome(self) -> SolveOutcome:
        assert self._topk is not None
        best = self._topk.best
        if best is None:
            return EMPTY_OUTCOME
        return SolveOutcome(
            subset=frozenset(best.subset),
            score=best.objective,
            x=best.embedding,
        )

    # -- gated path ----------------------------------------------------
    def _gated_answer(self) -> Tuple[SolveOutcome, str]:
        """The incumbent-gating decision tree.

        Full solves are forced by (in order): the cumulative event
        region outgrowing ``drift_ratio`` of the universe; new events
        inside the incumbent's closed neighbourhood (its structure
        changed); the incumbent's re-scored contrast decaying below
        ``hold_margin`` of its anchor; or a local probe of the evented
        region finding a challenger.  Otherwise the incumbent *subset*
        is held and emitted with its freshly re-scored contrast.
        """
        assert self._incumbent is not None
        if self._topk is not None:
            return self._gated_answer_topk()
        if (
            len(self._dirty.evented_since_full)
            > self.drift_ratio * len(self.universe)
        ):
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        evented = self._dirty.evented_since_answer
        if evented & self._closed_neighborhood(self._incumbent.subset):
            return self._full_solve(warm=True), SOURCE_SOLVE
        rescored = self._rescore(self._incumbent)
        if rescored is None:
            # Nothing to hold (empty incumbent): any change warrants a solve.
            return self._full_solve(warm=True), SOURCE_SOLVE
        if rescored.score < self.hold_margin * self._anchor_score:
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        if evented:
            probe = self._local_probe()
            if probe.score > rescored.score:
                self.stats.drift_fallbacks += 1
                return self._full_solve(warm=True), SOURCE_SOLVE
        self.stats.incumbent_holds += 1
        self._dirty.settle()
        self._incumbent = rescored
        self._cached = rescored
        return rescored, SOURCE_INCUMBENT

    def _gated_answer_topk(self) -> Tuple[SolveOutcome, str]:
        """The k>1 gating tree: every incumbent gets the k=1 treatment.

        Full solves are forced by the same triggers as k=1, widened to
        the whole maintained set — events inside *any* incumbent's
        closed neighbourhood, the *best* re-scored contrast decaying
        below ``hold_margin`` of the anchor, or a local probe beating
        the *k-th* re-scored score (a challenger need only displace the
        weakest incumbent to change the ranking).  A hold re-scores all
        k incumbents through :meth:`IncrementalTopK.rescore`, which
        re-sorts — so the emitted (rank-0) answer and the cached one
        always track membership changes, even score-order flips with no
        event anywhere near an incumbent.
        """
        assert self._topk is not None
        if (
            len(self._dirty.evented_since_full)
            > self.drift_ratio * len(self.universe)
        ):
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        incumbents = self._topk_outcomes()
        if not incumbents:
            return self._full_solve(warm=True), SOURCE_SOLVE
        evented = self._dirty.evented_since_answer
        region: Set[Vertex] = set()
        for incumbent in incumbents:
            region |= self._closed_neighborhood(incumbent.subset)
        if evented & region:
            return self._full_solve(warm=True), SOURCE_SOLVE
        rescored: Dict[FrozenSet[Vertex], SolveOutcome] = {}
        for incumbent in incumbents:
            fresh = self._rescore(incumbent)
            if fresh is None:
                return self._full_solve(warm=True), SOURCE_SOLVE
            rescored[incumbent.subset] = fresh
        best_score = max(o.score for o in rescored.values())
        if best_score < self.hold_margin * self._anchor_score:
            self.stats.drift_fallbacks += 1
            return self._full_solve(warm=True), SOURCE_SOLVE
        if evented:
            probe = self._local_probe()
            floor = (
                min(o.score for o in rescored.values())
                if len(rescored) >= self.k
                else 0.0
            )
            if probe.score > floor:
                self.stats.drift_fallbacks += 1
                return self._full_solve(warm=True), SOURCE_SOLVE
        self.stats.incumbent_holds += 1
        self._dirty.settle()
        self._topk.rescore(
            lambda subset: rescored[subset].score
            if subset in rescored
            else None
        )
        best = self._topk_best_outcome()
        self._incumbent = best
        self._cached = best
        return best, SOURCE_INCUMBENT

    def _closed_neighborhood(self, subset: Iterable[Vertex]) -> Set[Vertex]:
        members = set(subset)
        closed = set(members)
        for vertex in members:
            closed.update(self._diff.neighbors(vertex))
        return closed

    def _local_probe(self) -> SolveOutcome:
        region = self._closed_neighborhood(self._dirty.evented_since_full)
        self.stats.local_probes += 1
        return solve_difference(
            self._diff.subgraph(region & self.universe),
            self.measure,
            backend=self.backend,
            tol_scale=self.tol_scale,
            seed=self.seed,
        )

    def _rescore(self, incumbent: SolveOutcome) -> Optional[SolveOutcome]:
        """Re-evaluate a carried answer's score on the current difference.

        Average degree: the exact ``W(S) / |S|`` of the held subset on
        the updated graph.  Affinity: ``x^T D x`` with the carried
        embedding — exact for the carried ``x``, a lower bound on what
        a re-optimised embedding would score.
        """
        if incumbent.empty:
            return None
        self.stats.rescores += 1
        subset = incumbent.subset
        if self.measure == "average_degree":
            total = self._diff.total_degree(subset)
            return SolveOutcome(subset=subset, score=total / len(subset))
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
        return SolveOutcome(subset=subset, score=score, x=incumbent.x)


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
    members = set(universe) if universe is not None else set(log.universe)
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
            outcome = solve_difference(
                diff, measure, backend=backend, tol_scale=tol_scale, seed=seed
            )
            if not outcome.empty and outcome.score > min_score:
                log.append(
                    StreamAlert(
                        step=step,
                        subset=outcome.subset,
                        score=outcome.score,
                        measure=measure,
                        source=SOURCE_SOLVE,
                    )
                )
        history.append(state.copy())
    return log
