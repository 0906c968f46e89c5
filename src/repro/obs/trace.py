"""Span-based tracing: where a solve actually spends its time.

The repo spans five execution layers (engine → batch → stream →
sessions → service), and before this module the only timing anybody
got back was a flat ``solve_seconds``.  A :class:`Tracer` records a
tree of nested :class:`Span` intervals — ``perf_counter`` start/end,
a name, optional attributes — and derives from it the *phase
breakdown* every scale-out decision needs: how much of a NewSEA solve
was preparation, peeling, shrink/expand rounds, refinement.

Design rules:

* **No-op by default, zero overhead.**  The ambient tracer is a
  module-level :class:`NoopTracer` whose :meth:`~Tracer.span` returns
  one shared do-nothing context manager — hot paths (the streaming
  engine's per-step solves, every un-profiled benchmark) pay one
  attribute read and one no-op ``with``.  Nothing allocates, nothing
  is retained.
* **Opt-in per scope.**  :func:`recording` activates a fresh recording
  tracer for a ``with`` block (thread/context-local via
  :mod:`contextvars`); the CLI ``--profile``/``--json`` paths, the
  batch workers, and the service solve route each wrap exactly the
  work they want attributed.  A recording tracer belongs to one
  thread — spans nest via a plain stack.
* **Spans are data.**  :meth:`Span.to_dict` and
  :func:`phase_totals` (self-time aggregation: a span's own duration
  minus its children's, so totals sum to the root duration without
  double counting) make the tree shippable across process boundaries
  — the batch pool pickles phase dicts back with each result.

Span-name convention (what :func:`phase_of` keys on)::

    solve                        the envelope root (self time = driver)
    prepare.gd / prepare.gd_plus / prepare.csr / prepare.fingerprint
                                 PreparedGraph build steps  -> "prepare"
    backend.<capability>         TracingBackend calls, one  -> "<capability>"
                                 per name in engine.registry.CAPABILITIES
    new_sea                      NewSEA's plan walk         -> "new_sea"
    seacd.shrink / seacd.expand  Algorithm 3 stages         -> "shrink"/"expand"
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "phase_of",
    "phase_totals",
    "recording",
    "render_trace",
]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace identifier."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed interval in a trace tree."""

    __slots__ = ("name", "attributes", "start", "end", "children")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans (never negative)."""
        covered = sum(child.duration for child in self.children)
        return max(0.0, self.duration - covered)

    def set(self, **attributes: Any) -> None:
        """Attach attributes to an open (or closed) span."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready recursive form (durations in seconds)."""
        return {
            "name": self.name,
            "seconds": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} {self.duration * 1e3:.3f}ms "
            f"children={len(self.children)}>"
        )


class _SpanHandle:
    """The context manager one ``tracer.span(...)`` call returns."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._span.end = time.perf_counter()
        self._tracer._pop(self._span)


class _NoopSpan:
    """Shared do-nothing span: what the no-op tracer hands out."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, Any] = {}
    duration = 0.0
    self_seconds = 0.0

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_SHARED_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records a tree of spans for one traced scope (one thread).

    ``is_noop`` is the fast-path discriminator: instrumentation sites
    read it (or just call :meth:`span`, which is equally cheap on the
    no-op) and skip any work that only matters when recording.
    """

    is_noop = False

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Any:
        """Open a nested span: ``with tracer.span("backend.peel"): ...``"""
        return _SpanHandle(self, Span(name, attributes))

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits out of order (a caller kept a handle across a
        # generator boundary): unwind to the matching span.
        while self._stack:
            if self._stack.pop() is span:
                break

    # -- reading -------------------------------------------------------
    @property
    def root(self) -> Optional[Span]:
        """The first root span (the usual single-solve shape)."""
        return self.roots[0] if self.roots else None

    def phase_totals(self) -> Dict[str, float]:
        """Self-time seconds per phase across the whole trace."""
        return phase_totals(self.roots)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "spans": [span.to_dict() for span in self.roots],
        }

    def render(self) -> str:
        """The human tree (see :func:`render_trace`)."""
        return render_trace(self)


class NoopTracer(Tracer):
    """The zero-overhead default: records nothing, allocates nothing."""

    is_noop = True

    def __init__(self) -> None:
        self.trace_id = ""
        self.roots = []
        self._stack = []

    def span(self, name: str, **attributes: Any) -> Any:
        return _SHARED_NOOP_SPAN


#: The ambient default tracer — shared, stateless, never recording.
NOOP_TRACER = NoopTracer()

_ACTIVE: ContextVar[Tracer] = ContextVar("repro_tracer", default=NOOP_TRACER)


def current_tracer() -> Tracer:
    """The tracer active in this context (default: the no-op)."""
    return _ACTIVE.get()


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Make *tracer* the ambient tracer for the ``with`` block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def recording(trace_id: Optional[str] = None) -> Iterator[Tracer]:
    """Activate a fresh recording :class:`Tracer` for the block."""
    with activate(Tracer(trace_id)) as tracer:
        yield tracer


# ----------------------------------------------------------------------
# phase derivation
# ----------------------------------------------------------------------
def phase_of(name: str) -> str:
    """Map a span name onto its phase bucket (see module docstring)."""
    if name == "solve":
        return "driver"
    if name.startswith("prepare"):
        return "prepare"
    if "." in name:
        return name.split(".", 1)[1]
    return name


def phase_totals(spans: List[Span]) -> Dict[str, float]:
    """Self-time seconds per phase, summed over *spans* and children.

    Self-time aggregation means every wall-clock second is attributed
    exactly once: the totals sum to the root spans' combined duration,
    however deeply capability calls nest (``new_sea`` → per-vertex
    ``seacd``/``refine`` → ``shrink``/``expand`` rounds).
    """
    totals: Dict[str, float] = {}
    stack = list(spans)
    while stack:
        span = stack.pop()
        phase = phase_of(span.name)
        totals[phase] = totals.get(phase, 0.0) + span.self_seconds
        stack.extend(span.children)
    return dict(sorted(totals.items()))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.3f}ms"


def _merged_children(span: Span) -> List[Dict[str, Any]]:
    """Sibling spans merged by name: NewSEA runs hundreds of per-vertex
    seacd/refine rounds, and the tree stays readable only aggregated."""
    merged: Dict[str, Dict[str, Any]] = {}
    for child in span.children:
        entry = merged.get(child.name)
        if entry is None:
            entry = {"name": child.name, "seconds": 0.0, "count": 0,
                     "proto": child}
            merged[child.name] = entry
        entry["seconds"] += child.duration
        entry["count"] += 1
    return list(merged.values())


def _render_span(
    span: Span, lines: List[str], prefix: str, is_last: bool, top: bool
) -> None:
    connector = "" if top else ("└─ " if is_last else "├─ ")
    label = f"{span.name:<28}" if top else span.name
    lines.append(
        f"{prefix}{connector}{label}  {_format_seconds(span.duration)}"
    )
    child_prefix = prefix if top else prefix + ("   " if is_last else "│  ")
    entries = _merged_children(span)
    for index, entry in enumerate(entries):
        last = index == len(entries) - 1
        if entry["count"] == 1:
            _render_span(entry["proto"], lines, child_prefix, last, False)
        else:
            connector2 = "└─ " if last else "├─ "
            lines.append(
                f"{child_prefix}{connector2}{entry['name']}  "
                f"{_format_seconds(entry['seconds'])}  ×{entry['count']}"
            )


def render_trace(tracer: Tracer) -> str:
    """The ``repro --profile`` tree: spans, merged siblings, phase sums.

    The final two lines give the phase totals (self-time aggregation)
    and their sum — by construction equal to the traced wall clock, so
    a reader can confirm the attribution is complete at a glance.
    """
    lines: List[str] = [f"trace {tracer.trace_id or '(no-op)'}"]
    for span in tracer.roots:
        _render_span(span, lines, "", True, True)
    totals = tracer.phase_totals()
    if totals:
        parts = " ".join(
            f"{phase}={seconds:.6f}s" for phase, seconds in totals.items()
        )
        lines.append(f"phase totals: {parts}")
        lines.append(f"phase sum: {sum(totals.values()):.6f}s")
    return "\n".join(lines)
