"""Top-k density contrast subgraphs (the paper's future-work extension).

Section VII: "our methods only mine one DCS with the greatest density
difference, how to mine multiple subgraphs with big density difference is
another interesting direction."  This module provides the two natural
constructions:

* :func:`top_k_dcsga` — for graph affinity, the all-initialisations
  driver already yields many deduplicated positive cliques; rank them.
  ``diversify=True`` additionally enforces disjoint supports greedily
  (best-first), the usual way to avoid near-duplicate answers.
* :func:`top_k_dcsad` — for average degree, iterate DCSGreedy with a
  *removal* strategy between rounds: either delete the found vertices
  (disjoint answers) or delete only the found edges (overlapping answers
  allowed, the found structure itself suppressed).

Both return results in decreasing objective order, ranks numbered from 0
in that order, and stop early when the graph runs out of positive
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Literal,
    Optional,
    Set,
    Tuple,
)

from repro.core.dcsad import DCSADResult, dcs_greedy
from repro.core.newsea import solve_all_initializations
from repro.engine.registry import BackendLike, PeelBackend
from repro.graph.graph import Graph, Vertex

RemovalStrategy = Literal["vertices", "edges"]


@dataclass(frozen=True)
class RankedDCS:
    """One of the top-k answers with its rank (0 = best)."""

    rank: int
    subset: Set[Vertex]
    objective: float
    embedding: Optional[Dict[Vertex, float]] = None


def top_k_dcsga(
    gd_plus: Graph,
    k: int,
    diversify: bool = True,
    tol_scale: float = 1e-2,
    backend: BackendLike = "python",
    adjacency=None,
) -> List[RankedDCS]:
    """Top-k positive-clique solutions by graph affinity.

    Runs SEACD+Refinement from every vertex (the paper's multi-solution
    configuration behind Table V / Fig. 3) and ranks the deduplicated
    solutions.  With *diversify*, supports are made pairwise disjoint by
    best-first selection, so each answer describes a different group.
    ``backend="sparse"`` runs every initialisation on the vectorised CSR
    solver over one shared adjacency; *adjacency* supplies that
    :class:`~repro.graph.sparse.CSRAdjacency` prebuilt (the batch layer
    shares one per graph fingerprint through
    :class:`~repro.engine.prepared.PreparedGraph`; the registry
    validates it centrally against non-CSR backends).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    result = solve_all_initializations(
        gd_plus, tol_scale=tol_scale, backend=backend, adjacency=adjacency
    )
    ranked: List[RankedDCS] = []
    used: Set[Vertex] = set()
    for support, x, objective in result.solutions:
        if diversify and support & used:
            continue
        ranked.append(
            RankedDCS(
                rank=len(ranked),
                subset=set(support),
                objective=objective,
                embedding=dict(x),
            )
        )
        used |= support
        if len(ranked) == k:
            break
    return ranked


def _remove_found(
    gd: Graph, subset: Set[Vertex], strategy: RemovalStrategy
) -> Tuple[Graph, int]:
    """Strip the found structure; return ``(residual, removed_count)``.

    *removed_count* is the number of vertices or edges actually deleted —
    the iteration's progress measure.  A round that removes nothing can
    never change the next round's answer, so the caller must stop
    instead of looping on (or raising over) a frozen residual.
    """
    stripped = gd.copy()
    if strategy == "vertices":
        removed = 0
        for vertex in subset:
            if stripped.has_vertex(vertex):
                stripped.remove_vertex(vertex)
                removed += 1
        return stripped, removed
    if strategy == "edges":
        removed = 0
        members = list(subset)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if stripped.discard_edge(u, v) is not None:
                    removed += 1
        return stripped, removed
    raise ValueError(f"unknown removal strategy {strategy!r}")


def top_k_dcsad(
    gd: Graph,
    k: int,
    strategy: RemovalStrategy = "vertices",
    min_objective: float = 0.0,
    backend: PeelBackend = "heap",
) -> List[RankedDCS]:
    """Top-k average-degree contrast subgraphs by iterated DCSGreedy.

    After each round the found structure is removed (*strategy*:
    ``"vertices"`` deletes the vertices — disjoint answers; ``"edges"``
    deletes only the induced edges — answers may share vertices).  The
    iteration stops early once the best remaining contrast drops to
    *min_objective* (default: only strictly positive answers).
    *backend* is the peeling backend of each DCSGreedy round
    (``"heap"``, ``"segment_tree"`` or ``"sparse"``).

    Termination is guaranteed for any *k* and *min_objective*: the loop
    stops cleanly (no exception, no repeated answers) as soon as the
    residual graph has no positive edge left, or as soon as a round
    fails to remove anything — with ``strategy="edges"`` an answer can
    re-surface structure whose induced edges are already gone, and such
    a round makes no progress.

    Answers come back by decreasing density (a stable sort, ranks
    renumbered): a later round, run on the residual, can beat an
    earlier one.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if strategy not in ("vertices", "edges"):
        raise ValueError(f"unknown removal strategy {strategy!r}")
    found: List[DCSADResult] = []
    work = gd.copy()
    for _ in range(k):
        if work.num_vertices == 0:
            break
        heaviest = work.max_weight_edge()
        if heaviest is None or heaviest[2] <= 0:
            # The residual has no positive edge: every later round would
            # return the degenerate zero-contrast answer.  Stop cleanly.
            break
        result: DCSADResult = dcs_greedy(work, backend=backend)
        if result.density <= min_objective:
            break
        work, removed = _remove_found(work, result.subset, strategy)
        if removed == 0:
            break
        found.append(result)
    found.sort(key=lambda answer: -answer.density)
    return [
        RankedDCS(rank=rank, subset=set(answer.subset), objective=answer.density)
        for rank, answer in enumerate(found)
    ]


def coverage(results: List[RankedDCS]) -> Set[Vertex]:
    """Union of all returned subsets (diagnostics)."""
    covered: Set[Vertex] = set()
    for item in results:
        covered |= item.subset
    return covered


# ----------------------------------------------------------------------
# incremental maintenance (the streaming engine's k incumbents)
# ----------------------------------------------------------------------
def _subset_order_key(subset: FrozenSet[Vertex]) -> Tuple[int, str]:
    """Deterministic tie-break so equal scores rank reproducibly."""
    return (len(subset), repr(sorted(subset, key=repr)))


@dataclass
class _Candidate:
    """One maintained answer; mutable so re-scoring edits in place."""

    subset: FrozenSet[Vertex]
    score: float
    embedding: Optional[Dict[Vertex, float]] = None


class IncrementalTopK:
    """Maintain the best ``k`` (subset, score) answers under updates.

    The batch functions above recompute a ranking from scratch; a
    streaming session instead *maintains* one: fresh solve results are
    :meth:`offer`-ed (or the whole set :meth:`replace`-d after a full
    top-k solve), and the gated policy's per-incumbent re-scoring goes
    through :meth:`rescore`, which re-sorts — so rank membership can
    change without any new offer, which is exactly why consumers must
    read answers from this structure rather than from a step-count
    keyed cache.

    Invariants (property-tested): candidates are unique by subset,
    sorted by decreasing score (deterministic tie-break on the subset),
    at most ``k`` retained, and every retained score is strictly above
    ``min_score``.  The maintained set therefore always equals the
    best-k of everything offered since the last :meth:`clear` /
    :meth:`replace`, deduplicated by subset at each subset's best
    score.
    """

    def __init__(self, k: int, min_score: float = 0.0) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.min_score = min_score
        self._candidates: List[_Candidate] = []

    # -- reads ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, subset: Iterable[Vertex]) -> bool:
        key = frozenset(subset)
        return any(c.subset == key for c in self._candidates)

    @property
    def best(self) -> Optional[RankedDCS]:
        """The rank-0 answer, or ``None`` while empty."""
        ranked = self.as_ranked()
        return ranked[0] if ranked else None

    @property
    def worst_score(self) -> float:
        """Score of the current k-th answer (``min_score`` while the
        structure is not full — anything above it may enter)."""
        if len(self._candidates) < self.k:
            return self.min_score
        return self._candidates[-1].score

    def subsets(self) -> List[FrozenSet[Vertex]]:
        """Retained subsets in rank order."""
        return [c.subset for c in self._candidates]

    def scores(self) -> List[float]:
        """Retained scores in rank order."""
        return [c.score for c in self._candidates]

    def as_ranked(self) -> List[RankedDCS]:
        """The maintained answers as :class:`RankedDCS` rows."""
        return [
            RankedDCS(
                rank=rank,
                subset=set(c.subset),
                objective=c.score,
                embedding=(
                    dict(c.embedding) if c.embedding is not None else None
                ),
            )
            for rank, c in enumerate(self._candidates)
        ]

    # -- writes --------------------------------------------------------
    def clear(self) -> None:
        self._candidates = []

    def offer(
        self,
        subset: Iterable[Vertex],
        score: float,
        embedding: Optional[Dict[Vertex, float]] = None,
    ) -> bool:
        """Consider one answer; returns whether the top-k changed.

        A subset already retained keeps its best score (a worse re-offer
        is a no-op); a new subset enters if it beats the current k-th —
        score ties at the boundary resolve by the deterministic subset
        order, so the maintained set never depends on offer order.
        Scores at or below ``min_score`` never enter.
        """
        if score <= self.min_score:
            return False
        key = frozenset(subset)
        if not key:
            return False
        for candidate in self._candidates:
            if candidate.subset == key:
                if score <= candidate.score:
                    return False
                candidate.score = score
                if embedding is not None:
                    candidate.embedding = dict(embedding)
                self._sort()
                return True
        if len(self._candidates) >= self.k:
            last = self._candidates[-1]
            offered = (-score,) + _subset_order_key(key)
            retained = (-last.score,) + _subset_order_key(last.subset)
            if offered >= retained:
                return False
        self._candidates.append(
            _Candidate(
                subset=key,
                score=score,
                embedding=dict(embedding) if embedding is not None else None,
            )
        )
        self._sort()
        del self._candidates[self.k :]
        return True

    def replace(
        self,
        answers: Iterable[
            Tuple[Iterable[Vertex], float, Optional[Dict[Vertex, float]]]
        ],
    ) -> None:
        """Install a fresh answer set (a full top-k solve), discarding
        the maintained one."""
        self.clear()
        for subset, score, embedding in answers:
            self.offer(subset, score, embedding)

    def rescore(
        self,
        score_of: Callable[[FrozenSet[Vertex]], Optional[float]],
    ) -> bool:
        """Re-evaluate every retained answer on updated data.

        ``score_of`` maps a subset to its new score, or ``None`` to drop
        it (e.g. its support dissolved).  Candidates falling to or below
        ``min_score`` are dropped too; survivors re-sort, so ranks —
        including rank 0 — can move without any offer.  Returns whether
        membership or order changed.
        """
        before = [(c.subset, c.score) for c in self._candidates]
        survivors: List[_Candidate] = []
        for candidate in self._candidates:
            new_score = score_of(candidate.subset)
            if new_score is None or new_score <= self.min_score:
                continue
            candidate.score = new_score
            survivors.append(candidate)
        self._candidates = survivors
        self._sort()
        return before != [(c.subset, c.score) for c in self._candidates]

    def _sort(self) -> None:
        self._candidates.sort(
            key=lambda c: (-c.score,) + _subset_order_key(c.subset)
        )
