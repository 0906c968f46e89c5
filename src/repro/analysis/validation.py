"""Ground-truth recovery metrics for planted-structure experiments.

The synthetic datasets carry planted groups/topics; these helpers score a
mined subgraph against them by precision, recall and Jaccard overlap.
The tests use them to check that a solver recovers what was planted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Vertex


@dataclass(frozen=True)
class RecoveryScore:
    """Set-overlap scores of a found subset against one target set."""

    precision: float
    recall: float
    jaccard: float

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def score_against(found: Iterable[Vertex], target: Iterable[Vertex]) -> RecoveryScore:
    """Precision/recall/Jaccard of *found* w.r.t. *target*."""
    found_set = set(found)
    target_set = set(target)
    if not found_set:
        raise ValueError("found set is empty")
    if not target_set:
        raise ValueError("target set is empty")
    hit = len(found_set & target_set)
    return RecoveryScore(
        precision=hit / len(found_set),
        recall=hit / len(target_set),
        jaccard=hit / len(found_set | target_set),
    )


def best_match(
    found: Iterable[Vertex], targets: Sequence[Iterable[Vertex]]
) -> Tuple[Optional[int], Optional[RecoveryScore]]:
    """The planted group matching *found* best (by Jaccard).

    Returns ``(index, score)``; ``(None, None)`` when *targets* is empty.
    """
    found_set = set(found)
    best_index: Optional[int] = None
    best_score: Optional[RecoveryScore] = None
    for index, target in enumerate(targets):
        score = score_against(found_set, target)
        if best_score is None or score.jaccard > best_score.jaccard:
            best_index, best_score = index, score
    return best_index, best_score


def recovery_report(
    found_sets: Sequence[Iterable[Vertex]],
    targets: Sequence[Iterable[Vertex]],
    threshold: float = 0.5,
) -> dict:
    """Aggregate recovery of many answers against many planted groups.

    A target counts as *recovered* when some found set reaches Jaccard
    >= *threshold* against it.  Returns the per-target best Jaccard, the
    recovered count and the recovery rate.
    """
    if not targets:
        raise ValueError("no targets to score against")
    per_target: List[float] = []
    for target in targets:
        best = 0.0
        for found in found_sets:
            if not set(found):
                continue
            best = max(best, score_against(found, target).jaccard)
        per_target.append(best)
    recovered = sum(1 for value in per_target if value >= threshold)
    return {
        "per_target_jaccard": per_target,
        "recovered": recovered,
        "total": len(targets),
        "rate": recovered / len(targets),
    }
