"""TracingBackend — the registry-level instrumentation wrapper.

Every solver capability call in the library flows through
:func:`repro.engine.registry.resolve_backend`.  When a recording
:class:`~repro.obs.trace.Tracer` is active, the registry hands back
the resolved backend wrapped in a :class:`TracingBackend`: each
capability call (every name in
:data:`~repro.engine.registry.CAPABILITIES`) opens a
``backend.<capability>`` span around the inner call — per-capability
call counts and durations for free, on any backend, builtin or
user-registered, with zero edits to the kernels themselves.

The wrapper is transparent everywhere that matters: ``name``,
``supports_shared_adjacency``, availability, warm-up and capability
introspection all delegate to the wrapped backend (a wrapper must
never claim a capability the inner backend lacks — ``has_capability``
on the base class keys on method overrides, which the wrapper
overrides wholesale).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.registry import CAPABILITIES, SolverBackend
from repro.obs.trace import Tracer

__all__ = ["TracingBackend", "wrap_backend"]


class TracingBackend(SolverBackend):
    """Per-capability span recording around any :class:`SolverBackend`.

    The capability methods are generated from
    :data:`~repro.engine.registry.CAPABILITIES` below the class.
    """

    def __init__(self, inner: SolverBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def supports_shared_adjacency(self) -> bool:  # type: ignore[override]
        return self.inner.supports_shared_adjacency

    def available(self) -> bool:
        return self.inner.available()

    def missing_reason(self) -> str:
        return self.inner.missing_reason()

    def warm(self) -> None:
        self.inner.warm()

    def has_capability(self, capability: str) -> bool:
        return self.inner.has_capability(capability)

    def __repr__(self) -> str:
        return f"<TracingBackend around {self.inner!r}>"


def _traced(capability: str) -> Callable[..., Any]:
    """The *capability* method of :class:`TracingBackend`: the inner
    backend's call, inside one ``backend.<capability>`` span."""
    span_name = f"backend.{capability}"

    def call(self: TracingBackend, *args: Any, **kwargs: Any) -> Any:
        with self.tracer.span(span_name, backend=self.inner.name):
            return getattr(self.inner, capability)(*args, **kwargs)

    call.__name__ = capability
    call.__qualname__ = f"TracingBackend.{capability}"
    return call


for _capability in CAPABILITIES:
    setattr(TracingBackend, _capability, _traced(_capability))


def wrap_backend(backend: SolverBackend, tracer: Tracer) -> SolverBackend:
    """Wrap *backend* for *tracer*, idempotently.

    Re-resolving inside an already-traced call (the python backend's
    vertex solver resolves per-vertex ``seacd``/``refine`` through the
    module entry points) must not stack wrappers for the same tracer.
    """
    if isinstance(backend, TracingBackend) and backend.tracer is tracer:
        return backend
    return TracingBackend(backend, tracer)


def maybe_wrap(backend: SolverBackend) -> SolverBackend:
    """The registry hook: wrap only when the ambient tracer records."""
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    if tracer.is_noop:
        return backend
    return wrap_backend(backend, tracer)
