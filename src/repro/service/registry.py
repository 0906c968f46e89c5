"""The service's graph registry: named inputs -> warm ``PreparedGraph``.

A long-running query service lives or dies by what it can keep warm:
resolving a dataset name means synthesising a graph, and the first
query on any graph pays for ``GD+``, the CSR freezes and the content
fingerprint.  :class:`GraphRegistry` makes each of those a
once-per-name cost:

* **Dataset references** — any Table II name from
  :func:`repro.datasets.registry.entry_names` (e.g.
  ``"DBLP/Weighted/Emerging"``), built at the registry's ``scale`` on
  first use.
* **Uploaded pairs** — edge-list text for ``(G1, G2)`` registered under
  a caller-chosen name via :meth:`register_pair`; the assembled
  difference graph is retained, so an evicted preparation can be
  rebuilt without re-uploading.

Warm preparations live in an LRU of ``capacity`` entries: each holds a
fingerprinted :class:`~repro.engine.prepared.PreparedGraph` (``GD+`` +
CSRs built lazily, shared across every request that names it).  The
LRU bounds resident memory however many datasets the traffic touches;
``warm_hits`` / ``evictions`` feed the ``/metrics`` route.
"""

from __future__ import annotations

import io
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.difference import assemble_difference
from repro.engine.prepared import PreparedGraph
from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.engine.shm import SharedGraphStore

__all__ = ["GraphRegistry"]

#: callback fired after a cold build is exported to shared memory:
#: ``(ref, fingerprint, segment_name)`` — cluster workers announce the
#: segment to their siblings through this.
ExportHook = Callable[[str, str, str], None]


class GraphRegistry:
    """Named graphs resolved once each into a warm LRU of preparations.

    Thread-safe: the service resolves and uploads on a worker thread
    (to keep the event loop responsive), so every mutation of the LRU
    and the upload table happens under one lock — concurrent requests
    for the same name build its preparation once, not twice.
    """

    def __init__(
        self,
        capacity: int = 8,
        scale: float = 0.25,
        max_uploads: int = 64,
        budget_cells: Optional[int] = None,
        shm_store: Optional["SharedGraphStore"] = None,
        on_export: Optional[ExportHook] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("warm capacity must be at least 1")
        if max_uploads < 1:
            raise ValueError("max_uploads must be at least 1")
        if budget_cells is not None and budget_cells < 1:
            raise ValueError("budget_cells must be positive when set")
        self.capacity = capacity
        self.scale = scale
        #: bound on retained uploads — named graphs are server state a
        #: client creates, so they must not grow memory without limit
        self.max_uploads = max_uploads
        #: soft memory budget in cells (vertices + edges); ``None``
        #: disables shedding.  Session charges count against it, and
        #: warm entries are shed LRU-first while the total overflows.
        self.budget_cells = budget_cells
        #: zero-copy store: when set, every cold build is exported to a
        #: shared-memory segment (and announced via *on_export*), and
        #: names registered through :meth:`register_shared` resolve by
        #: attaching a sibling worker's segment instead of rebuilding
        self.shm_store = shm_store
        self.on_export = on_export
        #: name -> warm preparation, most recently used last
        self._warm: "OrderedDict[str, PreparedGraph]" = OrderedDict()
        #: uploaded difference graphs by name (eviction-safe source)
        self._uploads: Dict[str, Graph] = {}
        #: name -> announced shared-segment name (attach lazily on use)
        self._shared_refs: Dict[str, str] = {}
        #: owner -> cells currently charged (stream sessions and other
        #: resident state report their footprint here so the one LRU
        #: arbitrates all of the service's graph memory)
        self._charges: Dict[str, int] = {}
        self._lock = threading.RLock()
        self.resolutions = 0
        self.warm_hits = 0
        self.evictions = 0
        #: full prepare passes actually paid by this process — the
        #: prepare-once-per-host assertion sums this across workers
        self.cold_builds = 0
        #: preparations served by attaching a sibling's segment
        self.shared_attaches = 0

    # ------------------------------------------------------------------
    # uploads
    # ------------------------------------------------------------------
    def register_pair(
        self,
        name: str,
        g1_text: str,
        g2_text: str,
        alpha: float = 1.0,
        flip: bool = False,
        discrete: bool = False,
        cap: Optional[float] = None,
    ) -> PreparedGraph:
        """Parse an uploaded ``(G1, G2)`` edge-list pair and warm it.

        The universes are aligned the way :func:`repro.graph.io.read_pair`
        aligns file pairs, the difference graph is assembled with the
        given transform, and the resulting preparation enters the warm
        cache under *name* (replacing any previous upload of that name).
        """
        if not name or any(ch.isspace() for ch in name):
            raise InputMismatchError(
                f"graph name {name!r} must be non-empty without whitespace"
            )
        if "/" in name:
            # "/" is the dataset-reference namespace (Data/Setting/GDType);
            # keeping uploads out of it means a name is never ambiguous.
            raise InputMismatchError(
                f"graph name {name!r} may not contain '/' "
                "(reserved for dataset references)"
            )
        g1 = read_edge_list(io.StringIO(g1_text))
        g2 = read_edge_list(io.StringIO(g2_text))
        for vertex in g1.vertices():
            g2.add_vertex(vertex)
        for vertex in g2.vertices():
            g1.add_vertex(vertex)
        gd = assemble_difference(
            g1, g2, alpha=alpha, flipped=flip, discrete=discrete, cap=cap
        )
        prepared = PreparedGraph(gd)
        prepared.fingerprint  # noqa: B018 - eagerly pay the content hash
        with self._lock:
            if (
                name not in self._uploads
                and len(self._uploads) >= self.max_uploads
            ):
                raise InputMismatchError(
                    f"upload limit reached ({self.max_uploads} named "
                    "graphs); forget() one before registering more"
                )
            # Admit under the lock *before* the export: a rejected
            # upload must never be announced cluster-wide or leak a
            # shared-memory segment — the limit bounds both.
            self._uploads[name] = gd
        self._finish_cold_build(name, prepared)
        with self._lock:
            evicted = self._warm.pop(name, None)
            self._admit(name, prepared)
        if evicted is not None and evicted is not prepared:
            self._release(evicted)
        return prepared

    def forget(self, name: str) -> bool:
        """Drop an uploaded graph (and its warm entry); True if present."""
        with self._lock:
            dropped = self._warm.pop(name, None)
            self._shared_refs.pop(name, None)
            present = self._uploads.pop(name, None) is not None
        if dropped is not None:
            self._release(dropped)
        return present

    # ------------------------------------------------------------------
    # shared-memory topology
    # ------------------------------------------------------------------
    def register_shared(
        self, name: str, fingerprint: str, segment_name: str
    ) -> None:
        """Record that *name* is served from a sibling's shared segment.

        Cluster workers call this when the router broadcasts another
        worker's export announcement.  The attach itself is lazy — it
        happens on the first :meth:`resolve` of *name* — so a worker
        that never sees traffic for the graph never maps it.  A warm
        entry whose fingerprint already matches is left alone.
        """
        with self._lock:
            warm = self._warm.get(name)
            if (
                warm is not None
                and warm.cached_fingerprint != fingerprint
            ):
                # Stale preparation under this name (e.g. re-upload):
                # drop it so the next resolve attaches the new content.
                # Full release — store cache included — or a later
                # announcement of the same segment would hand back an
                # already-closed cached mapping.
                self._warm.pop(name, None)
                self._release(warm)
            self._shared_refs[name] = segment_name

    def _finish_cold_build(self, name: str, prepared: PreparedGraph) -> None:
        """Count a paid prepare pass and export it to shared memory.

        Runs outside the lock (export copies the CSR arrays once).  On
        export the preparation adopts the segment views — the host then
        holds exactly one copy of the frozen arrays — and *on_export*
        announces the segment so sibling workers can attach.
        """
        self.cold_builds += 1
        if self.shm_store is None:
            return
        from repro.exceptions import BackendUnavailableError

        try:
            segment = self.shm_store.export(prepared)
        except (BackendUnavailableError, OSError, ValueError):
            # Shared memory is an optimisation; never fail the build.
            # ValueError covers a squatted-but-never-ready segment (a
            # crashed exporter's leftovers) under this fingerprint.
            return
        prepared.adopt_segment(segment)
        with self._lock:
            self._shared_refs[name] = segment.name
        if self.on_export is not None:
            self.on_export(name, prepared.fingerprint, segment.name)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: str) -> PreparedGraph:
        """The warm preparation of *ref*, building it on first use.

        *ref* is an uploaded name or a dataset reference; unknown names
        raise ``KeyError`` listing the resolvable vocabulary.  Cold
        builds run *outside* the lock so a slow synthesis never stalls
        concurrent warm hits; if two requests race the same cold name,
        the loser discards its build and adopts the winner's (the warm
        entry stays unique).
        """
        with self._lock:
            self.resolutions += 1
            warm = self._warm.get(ref)
            if warm is not None:
                self._warm.move_to_end(ref)
                self.warm_hits += 1
                return warm
            upload = self._uploads.get(ref)
            shared_segment = self._shared_refs.get(ref)
        if shared_segment is not None and self.shm_store is not None:
            attached = self._attach_shared(ref, shared_segment)
            if attached is not None:
                return attached
        if upload is not None:
            prepared = PreparedGraph(upload)
        else:
            from repro.datasets.registry import build_named

            try:
                entry = build_named(ref, scale=self.scale)
            except KeyError:
                raise KeyError(
                    f"unknown graph {ref!r}; resolvable names: "
                    f"{self.names()}"
                ) from None
            prepared = PreparedGraph(entry.graph)
        prepared.fingerprint  # noqa: B018 - cache keys need the identity
        self._finish_cold_build(ref, prepared)
        with self._lock:
            existing = self._warm.get(ref)
            if existing is not None:
                self._warm.move_to_end(ref)
                return existing
            self._admit(ref, prepared)
        return prepared

    def _attach_shared(
        self, ref: str, segment_name: str
    ) -> Optional[PreparedGraph]:
        """Serve *ref* by attaching an announced sibling segment.

        Returns None (after dropping the stale announcement) when the
        segment no longer exists — the owner evicted and unlinked it —
        so the caller falls through to an ordinary cold build.
        """
        from repro.engine.shm import shared_prepared

        assert self.shm_store is not None
        try:
            segment = self.shm_store.attach(segment_name)
        except (FileNotFoundError, ValueError):
            with self._lock:
                if self._shared_refs.get(ref) == segment_name:
                    del self._shared_refs[ref]
            return None
        prepared: PreparedGraph = shared_prepared(segment)
        self.shared_attaches += 1
        with self._lock:
            existing = self._warm.get(ref)
            if existing is not None:
                self._warm.move_to_end(ref)
                return existing
            self._admit(ref, prepared)
        return prepared

    def names(self) -> List[str]:
        """Every resolvable name: uploads first, then the dataset rows."""
        from repro.datasets.registry import entry_names

        with self._lock:
            uploads = sorted(self._uploads)
        return uploads + entry_names()

    # ------------------------------------------------------------------
    # the LRU
    # ------------------------------------------------------------------
    @property
    def warm_count(self) -> int:
        """How many preparations are currently resident."""
        return len(self._warm)

    def warm_names(self) -> List[str]:
        """Resident names, least recently used first."""
        with self._lock:
            return list(self._warm)

    def _admit(self, name: str, prepared: PreparedGraph) -> None:
        with self._lock:
            self._warm[name] = prepared
            self._warm.move_to_end(name)
            while len(self._warm) > self.capacity:
                _, evicted = self._warm.popitem(last=False)
                self.evictions += 1
                self._release(evicted)
            self._shed_locked()

    def _release(self, prepared: PreparedGraph) -> None:
        """Return an evicted preparation's shared segment, if any.

        Drops the store's cached mapping and the preparation's refcount
        unit; the close that drains the in-segment count to zero unlinks
        the name (in-flight solves on POSIX keep their views valid).
        """
        segment = prepared.shm_segment
        if segment is not None and self.shm_store is not None:
            self.shm_store.release(segment.name)
        prepared.release()

    # ------------------------------------------------------------------
    # session memory accounting
    # ------------------------------------------------------------------
    @property
    def charged_cells(self) -> int:
        """Cells currently charged by resident owners (sessions)."""
        with self._lock:
            return sum(self._charges.values())

    def warm_cells(self) -> int:
        """Cells held by warm preparations — charged once per host.

        Shared-memory topology accounting: a segment attached from a
        sibling worker costs this process (almost) nothing — the owner
        already pays for the host's single copy — so attached entries
        charge zero, and two warm names backed by the same fingerprint
        (same segment) are counted once.  Without this, K workers
        attaching one large graph would each charge it fully and the
        LRU would shed warm entries K times too eagerly.
        """
        with self._lock:
            return self._warm_cells_locked()

    def _warm_cells_locked(self) -> int:
        seen: Set[str] = set()
        total = 0
        for prepared in self._warm.values():
            fingerprint = prepared.cached_fingerprint
            if fingerprint is not None:
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
            total += _prepared_cells(prepared)
        return total

    def charge(self, owner: str, cells: int) -> None:
        """Record *owner*'s resident footprint (replacing any previous
        charge) and shed warm entries if the budget overflows.

        Stream sessions call this on every footprint change; the warm
        LRU is the only shrinkable pool, so under session pressure the
        least recently used preparations go first (counted as
        evictions).  Charges themselves are never refused — admission
        control happens at session-creation time, not here.
        """
        if cells < 0:
            raise ValueError("cells must be non-negative")
        with self._lock:
            self._charges[owner] = cells
            self._shed_locked()

    def discharge(self, owner: str) -> None:
        """Drop *owner*'s charge (no-op if absent)."""
        with self._lock:
            self._charges.pop(owner, None)

    def _shed_locked(self) -> None:
        """Evict warm LRU entries while over ``budget_cells``.

        Caller holds the lock.  At least one warm entry is always kept:
        shedding the whole cache under extreme session pressure would
        only turn every query into a cold rebuild without freeing the
        sessions' own memory.
        """
        if self.budget_cells is None:
            return
        charged = sum(self._charges.values())
        while len(self._warm) > 1:
            warm = self._warm_cells_locked()
            if charged + warm <= self.budget_cells:
                break
            _, evicted = self._warm.popitem(last=False)
            self.evictions += 1
            self._release(evicted)


def _prepared_cells(prepared: PreparedGraph) -> int:
    """Footprint proxy of one preparation: vertices + edges of ``GD``.

    Segment *attachers* charge zero — the exporting owner carries the
    host's single copy.  Sizes come from the CSR when one is resident so
    shared preparations are never forced to materialise the dict graph
    just to be measured.
    """
    if prepared.shared_attached:
        return 0
    csr = prepared.csr() if prepared.shm_segment is not None else None
    if csr is not None:
        return csr.n + csr.num_edges
    return prepared.gd.num_vertices + prepared.gd.num_edges
