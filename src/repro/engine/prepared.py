"""PreparedGraph — the build-once query context for a difference graph.

Every DCS query over one difference graph ``GD`` needs some mix of the
same three derived artefacts:

* the **positive part** ``GD+`` (DCSGA always; DCSAD's third peel
  candidate);
* frozen **CSR adjacencies** of ``GD`` and ``GD+`` (any CSR-capable
  backend);
* the **content fingerprint** (cache keys, worker tables, provenance).

Before this class, each delivery layer rebuilt its own subset — the
batch planner deduplicated per-query but a DCSAD+DCSGA pair on the same
graph still built ``GD+`` twice, and the CLI never shared anything.
:class:`PreparedGraph` owns all three, builds each lazily exactly once,
and counts the builds (``plus_builds`` / ``csr_builds``) so tests can
assert the sharing actually happens.

Thread the same instance through every query on the graph::

    prepared = PreparedGraph(gd)
    dcs_greedy(gd, prepared=prepared)          # peels GD and GD+
    new_sea(prepared.gd_plus,                   # ...same GD+ object
            adjacency=prepared.csr_plus())      # ...same frozen CSR

CSR accessors are SciPy-gated the soft way: :meth:`csr` / :meth:`csr_plus`
return ``None`` when SciPy is missing (callers fall back to the python
backend's structures); :meth:`require_csr` raises the standard
:class:`~repro.exceptions.BackendUnavailableError` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.engine.shm import SharedGraphSegment
    from repro.graph.sparse import CSRAdjacency


class PreparedGraph:
    """Shared, lazily-built preparation of one difference graph."""

    __slots__ = (
        "_gd",
        "_gd_plus",
        "_csr",
        "_csr_plus",
        "_fingerprint",
        "_shared",
        "plus_builds",
        "csr_builds",
        "fingerprint_builds",
    )

    def __init__(
        self,
        gd: Graph,
        fingerprint: Optional[str] = None,
        gd_plus: Optional[Graph] = None,
    ) -> None:
        self._gd: Optional[Graph] = gd
        self._gd_plus = gd_plus
        self._csr: Optional["CSRAdjacency"] = None
        self._csr_plus: Optional["CSRAdjacency"] = None
        self._fingerprint = fingerprint
        #: the shared-memory segment backing the CSR artefacts, when the
        #: preparation was exported to / attached from the zero-copy
        #: store (:mod:`repro.engine.shm`); None for private buffers
        self._shared: Optional["SharedGraphSegment"] = None
        #: how many times GD+ was actually constructed (0 or 1)
        self.plus_builds = 0
        #: how many CSR freezes happened (at most one per graph)
        self.csr_builds = 0
        #: how many content hashes were computed (0 or 1)
        self.fingerprint_builds = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pair(
        cls,
        g1: Graph,
        g2: Graph,
        alpha: float = 1.0,
        flipped: bool = False,
        discrete: bool = False,
        cap: Optional[float] = None,
    ) -> "PreparedGraph":
        """Assemble the difference graph from ``(G1, G2)`` and wrap it."""
        from repro.core.difference import assemble_difference

        return cls(
            assemble_difference(
                g1, g2, alpha=alpha, flipped=flipped,
                discrete=discrete, cap=cap,
            )
        )

    # ------------------------------------------------------------------
    # the owned artefacts
    # ------------------------------------------------------------------
    @property
    def gd(self) -> Graph:
        """The difference graph itself (never copied).

        Shared-memory preparations start without the dict-of-dicts form
        and reconstruct it from the zero-copy CSR on first access — the
        CSR stores weights bit-exact, so the reconstruction fingerprints
        identically to the graph the owner originally froze.
        """
        if self._gd is None:
            if self._csr is None:
                raise InputMismatchError(
                    "preparation has neither a graph nor a CSR to "
                    "reconstruct it from"
                )
            from repro.engine.shm import graph_from_csr
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.gd_from_shared"):
                self._gd = graph_from_csr(self._csr)
        return self._gd

    @property
    def gd_plus(self) -> Graph:
        """``GD+`` — built on first access, shared forever after."""
        if self._gd_plus is None:
            if self._gd is None and self._csr_plus is not None:
                # Shared-memory preparation: GD+ reconstructs straight
                # from its own CSR view, skipping the GD round-trip.
                from repro.engine.shm import graph_from_csr
                from repro.obs.trace import current_tracer

                with current_tracer().span("prepare.gd_from_shared"):
                    self._gd_plus = graph_from_csr(self._csr_plus)
                self.plus_builds += 1
                return self._gd_plus
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.gd_plus"):
                self._gd_plus = self.gd.positive_part()
            self.plus_builds += 1
        return self._gd_plus

    @property
    def cached_fingerprint(self) -> Optional[str]:
        """The fingerprint if already known — never triggers hashing.

        Hot per-step paths (the streaming engine) attach provenance only
        when the identity is already paid for.
        """
        return self._fingerprint

    @property
    def fingerprint(self) -> str:
        """Content hash of ``GD`` (stable across processes/sessions)."""
        if self._fingerprint is None:
            from repro.graph.sparse import graph_fingerprint
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.fingerprint"):
                self._fingerprint = graph_fingerprint(self.gd)
            self.fingerprint_builds += 1
        return self._fingerprint

    def csr(self) -> Optional["CSRAdjacency"]:
        """Frozen CSR of ``GD``, or None when SciPy is unavailable."""
        from repro.graph.sparse import CSRAdjacency, scipy_available

        if self._csr is None and scipy_available():
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.csr"):
                self._csr = CSRAdjacency.from_graph(self.gd)
            self.csr_builds += 1
        return self._csr

    def csr_plus(self) -> Optional["CSRAdjacency"]:
        """Frozen CSR of ``GD+``, or None when SciPy is unavailable."""
        from repro.graph.sparse import CSRAdjacency, scipy_available

        if self._csr_plus is None and scipy_available():
            gd_plus = self.gd_plus
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.csr"):
                self._csr_plus = CSRAdjacency.from_graph(gd_plus)
            self.csr_builds += 1
        return self._csr_plus

    def csr_of(self, graph: Graph) -> Optional["CSRAdjacency"]:
        """The frozen CSR matching *graph* — ``GD`` or ``GD+``.

        Callers holding "whichever graph the user passed" (``dcs_greedy``
        accepts either the difference graph or its positive part) use
        this instead of guessing; pairing a graph with the other
        graph's adjacency would poison every kernel downstream.
        Returns None when SciPy is unavailable.
        """
        if graph is self._gd_plus:
            return self.csr_plus()
        if graph is self._gd:
            return self.csr()
        raise InputMismatchError(
            "graph is neither this preparation's GD nor its GD+"
        )

    def require_csr(self, positive: bool = True) -> "CSRAdjacency":
        """Like :meth:`csr_plus`/:meth:`csr` but SciPy absence raises."""
        from repro.graph.sparse import _require_scipy

        _require_scipy()
        found = self.csr_plus() if positive else self.csr()
        assert found is not None  # _require_scipy guarantees availability
        return found

    # ------------------------------------------------------------------
    # shared-memory integration
    # ------------------------------------------------------------------
    @property
    def shm_segment(self) -> Optional["SharedGraphSegment"]:
        """The backing shared segment, if any (diagnostic/accounting)."""
        return self._shared

    @property
    def shared_attached(self) -> bool:
        """True when this preparation *attached* an existing segment.

        The registry charges attached preparations zero cells — the
        owner (exporter) already pays for the host's single copy.
        """
        return self._shared is not None and not self._shared.created

    def adopt_segment(self, segment: "SharedGraphSegment") -> None:
        """Swap the CSR artefacts for zero-copy views on *segment*.

        Called by the exporting owner right after
        :meth:`~repro.engine.shm.SharedGraphStore.export`: the private
        CSR buffers are dropped in favour of the shared copy, so the
        host holds exactly one copy of the arrays.
        """
        self._shared = segment
        self._csr = segment.csr()
        self._csr_plus = segment.csr_plus()

    def release(self) -> bool:
        """Drop the shared segment mapping (registry eviction hook).

        Decrements the segment refcount; the drain-to-zero closer
        unlinks the name.  Returns True when this release unlinked.
        No-op for private (non-shared) preparations.
        """
        if self._shared is None:
            return False
        segment, self._shared = self._shared, None
        return segment.close()

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle as the constructor arguments.

        The CSR caches are derived state the receiver rebuilds on
        demand, so a shared-memory preparation arrives as a private
        copy (its ``GD`` rebuilt from the shared CSR first).
        """
        return (PreparedGraph, (self.gd, self._fingerprint, self._gd_plus))

    # ------------------------------------------------------------------
    # safety
    # ------------------------------------------------------------------
    def check_owns(self, gd: Graph) -> None:
        """Guard against pairing a preparation with a different graph.

        Identity, not content: preparations are shared precisely to
        avoid re-reading the content, and within one process the same
        input *is* the same object.
        """
        if gd is not self._gd and gd is not self._gd_plus:
            raise InputMismatchError(
                "prepared context was built from a different graph object"
            )

    def __repr__(self) -> str:
        plus = "built" if self._gd_plus is not None else "lazy"
        if self._gd is None:
            shared = self._shared.name if self._shared is not None else "?"
            return f"<PreparedGraph shared={shared} gd=lazy gd_plus={plus}>"
        return (
            f"<PreparedGraph n={self._gd.num_vertices} "
            f"m={self._gd.num_edges} gd_plus={plus} "
            f"csr_builds={self.csr_builds}>"
        )
