"""PreparedGraph — the build-once query context for a difference graph.

Every DCS query over one difference graph ``GD`` needs some mix of the
same derived artefacts:

* the **positive part** ``GD+`` (DCSGA always; DCSAD's third peel
  candidate);
* **CSR adjacencies** of ``GD`` and ``GD+`` (any CSR-capable backend);
* the dict-of-dicts **graphs** ``GD`` and ``GD+`` (the python backend,
  and the dict reads the sparse solvers still make);
* the **content fingerprint** (cache keys, worker tables, provenance).

A preparation starts from one canonical form and derives the rest:

* **Array-first** (:meth:`from_pair`, and shared-memory attaches): the
  canonical form is ``GD``'s CSR, assembled straight from the
  ``(G1, G2)`` arrays.  ``GD+``'s CSR is its
  :meth:`~repro.graph.sparse.CSRAdjacency.positive_part`, the
  fingerprint hashes the arrays, and the dict ``GD``/``GD+`` are built
  from the CSRs, in repr order, only when something reads them.
* **Dict-first** (``PreparedGraph(gd)``, e.g. dataset references): the
  canonical form is the dict ``GD``; ``GD+`` is its dict positive
  part, and each CSR is a freeze of the matching dict graph.

Either way :class:`PreparedGraph` builds each artefact lazily exactly
once, behind its own accessor, and counts the builds (``plus_builds`` /
``csr_builds`` / ``fingerprint_builds``) so tests can assert the
sharing actually happens.

Thread the same instance through every query on the graph::

    prepared = PreparedGraph(gd)
    dcs_greedy(gd, prepared=prepared)          # peels GD and GD+
    new_sea(prepared.gd_plus,                   # ...same GD+ object
            adjacency=prepared.csr_plus())      # ...same frozen CSR

CSR accessors are SciPy-gated the soft way: :meth:`csr` / :meth:`csr_plus`
return ``None`` when SciPy is missing (callers fall back to the python
backend's structures); :meth:`require_csr` raises the standard
:class:`~repro.exceptions.BackendUnavailableError` instead.  An
array-first preparation needs NumPy only: its graphs and fingerprint
come from the arrays with or without SciPy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph, Vertex

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
        "_arrays_first",
        "_fingerprint",
        "_shared",
        "plus_builds",
        "csr_builds",
        "fingerprint_builds",
    )

    def __init__(
        self,
        gd: Optional[Graph] = None,
        fingerprint: Optional[str] = None,
        gd_plus: Optional[Graph] = None,
        csr: Optional["CSRAdjacency"] = None,
    ) -> None:
        """Prepare the dict graph *gd*, or (array-first) the CSR *csr*.

        Exactly one of the two is the canonical form; *fingerprint*
        and *gd_plus*, when given, are trusted to match it.
        """
        if (gd is None) == (csr is None):
            raise InputMismatchError(
                "a preparation starts from exactly one of a graph and a CSR"
            )
        self._gd = gd
        self._gd_plus = gd_plus
        self._csr = csr
        self._csr_plus: Optional["CSRAdjacency"] = None
        #: the CSR is the canonical form: GD+ derives from its arrays,
        #: and the dict graphs are built from the CSRs on first read
        self._arrays_first = csr is not None
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
        """Assemble ``GD``'s CSR from ``(G1, G2)``: an array-first
        preparation (see the module docstring).  Builds no dict graph."""
        from repro.core.difference import assemble_difference

        return cls(
            csr=assemble_difference(
                g1, g2, alpha=alpha, flipped=flipped,
                discrete=discrete, cap=cap,
            )
        )

    # ------------------------------------------------------------------
    # the owned artefacts
    # ------------------------------------------------------------------
    @property
    def gd(self) -> Graph:
        """The difference graph itself (one object per preparation).

        An array-first preparation builds it from ``GD``'s CSR on first
        access (vertices and neighbours in repr order); the CSR stores
        weights bit-exact, so it fingerprints as the arrays do.
        """
        if self._gd is None:
            assert self._csr is not None  # the constructor holds one
            from repro.engine.shm import graph_from_csr
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.gd"):
                self._gd = graph_from_csr(self._csr)
        return self._gd

    @property
    def gd_plus(self) -> Graph:
        """``GD+`` — built on first access, shared forever after."""
        if self._gd_plus is None:
            from repro.obs.trace import current_tracer

            if self._arrays_first:
                from repro.engine.shm import graph_from_csr

                plus = self._plus_csr()
                with current_tracer().span("prepare.gd_plus"):
                    self._gd_plus = graph_from_csr(plus)
            else:
                with current_tracer().span("prepare.gd_plus"):
                    self._gd_plus = self.gd.positive_part()
            self.plus_builds += 1
        return self._gd_plus

    @property
    def num_vertices(self) -> int:
        """``n`` of ``GD``, read without building any artefact."""
        if self._csr is not None:
            return self._csr.n
        assert self._gd is not None
        return self._gd.num_vertices

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over ``GD``'s vertices without building any artefact:
        a held CSR's repr order, else the dict graph's order."""
        if self._csr is not None:
            return iter(self._csr.vertices)
        assert self._gd is not None
        return self._gd.vertices()

    @property
    def num_edges(self) -> int:
        """``m`` of ``GD``, read without building any artefact."""
        if self._csr is not None:
            return self._csr.num_edges
        assert self._gd is not None
        return self._gd.num_edges

    @property
    def cached_fingerprint(self) -> Optional[str]:
        """The fingerprint if already known — never triggers hashing.

        Hot per-step paths (the streaming engine) attach provenance only
        when the identity is already paid for.
        """
        return self._fingerprint

    @property
    def fingerprint(self) -> str:
        """Content hash of ``GD`` (stable across processes/sessions).

        Hashes ``GD``'s CSR when one is held, and the dict graph
        otherwise; both give
        :func:`~repro.graph.sparse.graph_fingerprint`'s digest.
        """
        if self._fingerprint is None:
            from repro.graph.sparse import csr_fingerprint, graph_fingerprint
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.fingerprint"):
                csr = self._csr
                if csr is not None:
                    self._fingerprint = csr_fingerprint(
                        csr.vertices, csr.indptr, csr.indices, csr.data
                    )
                else:
                    self._fingerprint = graph_fingerprint(self.gd)
            self.fingerprint_builds += 1
        return self._fingerprint

    def csr(self) -> Optional["CSRAdjacency"]:
        """CSR of ``GD``, or None when SciPy is unavailable."""
        from repro.graph.sparse import CSRAdjacency, scipy_available

        if not scipy_available():
            return None
        if self._csr is None:
            from repro.obs.trace import current_tracer

            with current_tracer().span("prepare.csr"):
                self._csr = CSRAdjacency.from_graph(self.gd)
            self.csr_builds += 1
        return self._csr

    def csr_plus(self) -> Optional["CSRAdjacency"]:
        """CSR of ``GD+``, or None when SciPy is unavailable."""
        from repro.graph.sparse import scipy_available

        if not scipy_available():
            return None
        return self._plus_csr()

    def _plus_csr(self) -> "CSRAdjacency":
        """``GD+``'s CSR: a mask over ``GD``'s arrays when array-first
        (NumPy only), else a freeze of the dict ``GD+``."""
        if self._csr_plus is None:
            from repro.graph.sparse import CSRAdjacency
            from repro.obs.trace import current_tracer

            if self._arrays_first:
                assert self._csr is not None
                with current_tracer().span("prepare.csr"):
                    self._csr_plus = self._csr.positive_part()
            else:
                gd_plus = self.gd_plus
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
        """Pickle as the constructor arguments: the canonical form.

        Everything else is derived state the receiver rebuilds on
        demand.  An array-first preparation travels as ``GD``'s arrays,
        so a shared-memory preparation arrives as a private copy.
        """
        if self._arrays_first:
            return (PreparedGraph, (None, self._fingerprint, None, self._csr))
        return (PreparedGraph, (self._gd, self._fingerprint, self._gd_plus))

    def unbuilt(self) -> "PreparedGraph":
        """A new preparation of the same graph: the canonical form and
        the fingerprint, with nothing derived built yet.

        The query service keeps one per upload, to re-prepare it after
        an eviction without keeping any dict graph resident.
        """
        if self._arrays_first:
            return PreparedGraph(csr=self._csr, fingerprint=self._fingerprint)
        return PreparedGraph(self._gd, fingerprint=self._fingerprint)

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
        gd = "built" if self._gd is not None else "lazy"
        plus = "built" if self._gd_plus is not None else "lazy"
        shared = f" shared={self._shared.name}" if self._shared else ""
        return (
            f"<PreparedGraph n={self.num_vertices} m={self.num_edges}"
            f"{shared} gd={gd} gd_plus={plus} csr_builds={self.csr_builds}>"
        )
