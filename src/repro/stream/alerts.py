"""Alert pipeline: typed alerts, a collecting log, JSON serialisation.

An alert is one closed step's flagged subgraph and its contrast
score, plus streaming provenance: which path produced the answer (a
full solve or the cached previous solve) so operators and benchmarks
can see the incremental machinery working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.graph.graph import Vertex

#: Provenance of an alert's answer.
SOURCE_SOLVE = "solve"        # fresh full solve this step
SOURCE_CACHE = "cache"        # difference graph unchanged; previous solve reused


@dataclass(frozen=True)
class StreamAlert:
    """One emitted anomaly: the flagged subgraph of a closed step."""

    step: int
    subset: FrozenSet[Vertex]
    score: float
    measure: str
    source: str = SOURCE_SOLVE

    def exceeds(self, threshold: float) -> bool:
        """Whether the contrast is above an alerting threshold."""
        return self.score > threshold

    @property
    def key(self) -> Tuple[int, FrozenSet[Vertex]]:
        """Identity for cross-engine parity comparison."""
        return (self.step, self.subset)

    def to_json(self) -> str:
        """One-line JSON record (the ``repro stream`` output format)."""
        return json.dumps(
            {
                "step": self.step,
                "score": self.score,
                "size": len(self.subset),
                "subset": sorted(str(v) for v in self.subset),
                "measure": self.measure,
                "source": self.source,
            },
            sort_keys=True,
        )


class AlertLog:
    """An ordered collection of alerts with pipeline conveniences."""

    def __init__(self, alerts: Iterable[StreamAlert] = ()) -> None:
        self._alerts: List[StreamAlert] = list(alerts)

    def append(self, alert: StreamAlert) -> None:
        self._alerts.append(alert)

    def extend(self, alerts: Iterable[StreamAlert]) -> None:
        self._alerts.extend(alerts)

    def __len__(self) -> int:
        return len(self._alerts)

    def __iter__(self) -> Iterator[StreamAlert]:
        return iter(self._alerts)

    def __getitem__(self, index: int) -> StreamAlert:
        return self._alerts[index]

    @property
    def steps(self) -> List[int]:
        """Steps that raised an alert, in emission order."""
        return [alert.step for alert in self._alerts]

    def fired(self, threshold: float) -> "AlertLog":
        """The sub-log of alerts whose score exceeds *threshold*."""
        return AlertLog(a for a in self._alerts if a.exceeds(threshold))

    def json_lines(self) -> str:
        """All alerts as newline-delimited JSON."""
        return "\n".join(alert.to_json() for alert in self._alerts)


def alert_keys(alerts: Iterable[StreamAlert]) -> Set[Tuple[int, FrozenSet[Vertex]]]:
    """The ``(step, subset)`` identity set — the unit of alert parity.

    Two monitoring runs are *alert-equivalent* when these sets match
    (scores are compared separately, with float tolerance, because the
    incremental and rebuilt difference weights can differ in the last
    ulps).
    """
    return {alert.key for alert in alerts}
