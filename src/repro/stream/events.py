"""Edge events — the unit of ingestion for the streaming DCS engine.

The batch pipeline contrasts two *whole graphs*; a live network instead
emits a stream of **observations**: at (integer) step ``t`` the observed
connection strength of the pair ``(u, v)`` is ``w``.  An
:class:`EdgeEvent` records exactly that.  Semantics:

* ``w`` is the **absolute** observed strength (the paper's "current
  pairwise connection strength"), not a delta — re-observing an
  unchanged edge is a no-op, and ``w = 0`` means the connection is gone.
* Strengths **persist** between observations: an edge keeps its last
  observed weight until a new event overrides it.  A step's snapshot is
  therefore the current persistent state, and only evented pairs differ
  from the previous step — the sparsity the incremental engine exploits.
* Timestamps are non-decreasing integers; gaps are legal (the engine
  closes the intermediate steps with no events).

The module also provides the event-file format used by ``repro stream``
(whitespace lines, mirroring :mod:`repro.graph.io`)::

    # repro event log: t u v w
    0 alice bob 1.5
    3 alice bob 4.0
    carol              <- bare token: declare an isolated vertex

and :func:`events_between`, which diffs two snapshots into the event
batch that transforms one into the other — how a stream of whole
snapshots reaches the engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    TextIO,
    Tuple,
    Union,
)

from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph, Vertex

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True, order=True)
class EdgeEvent:
    """One observation: at step *t*, pair ``(u, v)`` has strength *w*.

    Ordering is by timestamp first (then endpoints/weight), so a sorted
    list of events is a valid stream.
    """

    t: int
    u: Vertex
    v: Vertex
    w: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise InputMismatchError(
                f"event at t={self.t} is a self loop on {self.u!r}"
            )
        if self.t < 0:
            raise InputMismatchError(f"negative timestamp {self.t}")
        if self.w != self.w or self.w in (float("inf"), float("-inf")):
            raise InputMismatchError(
                f"event ({self.u!r}, {self.v!r}) at t={self.t} has "
                f"non-finite weight {self.w!r}"
            )

    @property
    def key(self) -> Tuple[Vertex, Vertex]:
        """Canonical undirected edge key (endpoints sorted by ``repr``)."""
        return edge_key(self.u, self.v)


def edge_key(u: Vertex, v: Vertex) -> Tuple[Vertex, Vertex]:
    """Canonical undirected key for a vertex pair."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class EventLog:
    """A parsed event file: the events plus the declared vertex universe.

    ``universe`` contains every declared isolated vertex *and* every
    event endpoint, so it is the fixed vertex set of the DCS problem the
    stream defines.
    """

    events: List[EdgeEvent] = field(default_factory=list)
    declared: Set[Vertex] = field(default_factory=set)

    @property
    def universe(self) -> Set[Vertex]:
        members = set(self.declared)
        for event in self.events:
            members.add(event.u)
            members.add(event.v)
        return members

    @property
    def last_step(self) -> int:
        return self.events[-1].t if self.events else -1


def validate_monotone(events: Iterable[EdgeEvent]) -> Iterator[EdgeEvent]:
    """Yield *events*, raising if timestamps ever decrease."""
    previous = -1
    for event in events:
        if event.t < previous:
            raise InputMismatchError(
                f"event timestamps must be non-decreasing: "
                f"{event.t} after {previous}"
            )
        previous = event.t
        yield event


def group_by_step(
    events: Iterable[EdgeEvent],
) -> Iterator[Tuple[int, List[EdgeEvent]]]:
    """Group a monotone stream into ``(t, batch)`` pairs, in step order.

    Steps with no events are *not* emitted; the consumer decides how to
    advance across gaps (the engine closes them one by one).
    """
    batch: List[EdgeEvent] = []
    current: Optional[int] = None
    for event in validate_monotone(events):
        if current is None or event.t == current:
            current = event.t
            batch.append(event)
        else:
            yield current, batch
            current, batch = event.t, [event]
    if batch:
        assert current is not None
        yield current, batch


def events_between(
    previous: Graph, current: Graph, t: int
) -> List[EdgeEvent]:
    """The event batch turning snapshot *previous* into snapshot *current*.

    Emits one event per pair whose weight differs (including weight-0
    events for edges that vanished).  Feeding a snapshot stream through
    this converter gives the engine the event log whose per-step
    persistent state is that snapshot stream; each window mean is then
    the mean of the previous snapshots.
    """
    batch: List[EdgeEvent] = []
    for u, v, weight in current.edges():
        if previous.weight(u, v) != weight:
            batch.append(EdgeEvent(t=t, u=u, v=v, w=weight))
    for u, v, _ in previous.edges():
        if not current.has_edge(u, v):
            batch.append(EdgeEvent(t=t, u=u, v=v, w=0.0))
    batch.sort()
    return batch


# ----------------------------------------------------------------------
# event-file serialisation (the ``repro stream`` input format)
# ----------------------------------------------------------------------
def write_events(
    log: EventLog, destination: Union[PathLike, TextIO]
) -> None:
    """Write an :class:`EventLog` as ``t u v w`` lines."""
    if hasattr(destination, "write"):
        _write_stream(log, destination)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as stream:
        _write_stream(log, stream)


def _token(vertex: Vertex) -> str:
    text = str(vertex)
    if not text or any(ch.isspace() for ch in text):
        raise InputMismatchError(
            f"vertex label {vertex!r} cannot be serialised: "
            "labels must be non-empty and contain no whitespace"
        )
    return text


def _write_stream(log: EventLog, stream: TextIO) -> None:
    stream.write("# repro event log: t u v w\n")
    touched: Set[Vertex] = set()
    for event in log.events:
        stream.write(
            f"{event.t} {_token(event.u)} {_token(event.v)} {event.w!r}\n"
        )
        touched.add(event.u)
        touched.add(event.v)
    for vertex in sorted(log.declared - touched, key=repr):
        stream.write(f"{_token(vertex)}\n")


def read_events(
    source: Union[PathLike, TextIO],
    parser: Optional[Callable[[str], Vertex]] = None,
) -> EventLog:
    """Parse an event file written by :func:`write_events`.

    Lines: ``t u v w`` events, bare ``u`` isolated-vertex declarations,
    ``#`` comments.  Timestamps must be non-decreasing.  *parser*
    converts vertex tokens (default: keep as ``str``).
    """
    if hasattr(source, "read"):
        return _read_stream(source, parser)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as stream:
        return _read_stream(stream, parser)


def _read_stream(
    stream: TextIO, parser: Optional[Callable[[str], Vertex]]
) -> EventLog:
    convert = parser if parser is not None else (lambda token: token)
    log = EventLog()
    previous = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            log.declared.add(convert(parts[0]))
            continue
        if len(parts) != 4:
            raise InputMismatchError(
                f"line {lineno}: expected 't u v w' or 'u', got {line!r}"
            )
        try:
            t = int(parts[0])
        except ValueError:
            raise InputMismatchError(
                f"line {lineno}: bad timestamp {parts[0]!r}"
            ) from None
        try:
            w = float(parts[3])
        except ValueError:
            raise InputMismatchError(
                f"line {lineno}: bad weight {parts[3]!r}"
            ) from None
        if t < previous:
            raise InputMismatchError(
                f"line {lineno}: timestamp {t} decreases (previous {previous})"
            )
        previous = t
        log.events.append(
            EdgeEvent(t=t, u=convert(parts[1]), v=convert(parts[2]), w=w)
        )
    return log
