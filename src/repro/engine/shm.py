"""Zero-copy shared-memory graph store for multi-worker serving.

A prepared difference graph is frozen data: two CSR adjacencies (``GD``
and ``GD+``) whose ``indptr``/``indices``/``data`` arrays never change
after construction.  The multi-worker service topology
(:mod:`repro.service.cluster`) wants N solver processes on one host to
serve the *same* graph without N copies of those buffers and without N
redundant prepare passes.  This module provides that substrate:

* :meth:`SharedGraphStore.export` lays a :class:`PreparedGraph`'s frozen
  arrays out in one ``multiprocessing.shared_memory`` segment, named by
  the graph's content fingerprint — export is idempotent per host (a
  concurrent exporter of the same fingerprint attaches the winner's
  segment instead of failing, waiting for its ready flag — the magic,
  written after every payload byte — so a mid-copy segment is never
  served).
* :meth:`SharedGraphStore.attach` maps an existing segment and wraps the
  arrays back into read-only :class:`CSRAdjacency` views — no copy, no
  rebuild; :func:`shared_prepared` goes one step further and yields a
  :class:`SharedPreparedGraph` that solvers consume exactly like a
  locally-built preparation.

Sharing happens by name only: a process reaches a segment through
:meth:`SharedGraphStore.attach`.  Pickling a shm-backed
:class:`CSRAdjacency` or :class:`PreparedGraph` copies its content into
private buffers on the receiving side.

Lifecycle is explicit and counted.  Each segment carries an in-segment
reference count, adjusted under ``flock`` on the mapping's fd (tmpfs-
backed on Linux, so kernel-arbitrated across processes): create sets it
to 1, every attach increments, every :meth:`SharedGraphSegment.close`
decrements and the closer that drains the count to zero unlinks the
name.  POSIX semantics make this safe against in-flight readers —
unlink removes the *name*; existing mappings stay valid until their
processes close.  A supervisor-side sweep (:func:`unlink_segment` over
the announce log) is the crash backstop: workers killed with SIGKILL
never decrement, and the sweep reclaims their segments at shutdown.

Python < 3.13 wrinkle: ``SharedMemory`` registers every mapping (create
*and* attach) with the ``resource_tracker``, which unlinks registered
segments when its client process exits — destroying segments siblings
still serve from.  Refcounted ownership is incompatible with that, so
segments here are never tracker-registered (see :func:`_untrack`); the
explicit lifecycle plus the supervisor sweep replace it entirely.
"""

from __future__ import annotations

import json
import pickle
import secrets
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised implicitly on import
    import numpy as np
except ImportError:  # pragma: no cover - container ships NumPy
    np = None  # type: ignore[assignment]

try:  # pragma: no cover - platform-gated (POSIX only)
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

try:  # pragma: no cover - exercised implicitly on import
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - stdlib always ships it on 3.8+
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

from repro.engine.prepared import PreparedGraph
from repro.exceptions import BackendUnavailableError
from repro.graph.graph import Graph
from repro.graph.sparse import CSRAdjacency, scipy_available

if shared_memory is not None:

    class _QuietSharedMemory(shared_memory.SharedMemory):
        """SharedMemory whose destructor tolerates live buffer views.

        ``SharedMemory.close`` raises ``BufferError`` while numpy views
        still reference the mapping; the stdlib ``__del__`` lets that
        escape as "Exception ignored" noise at GC / interpreter
        shutdown.  Solver views legitimately outlive a close (POSIX
        keeps the mapping valid), so swallow it — the OS reclaims the
        mapping at process exit either way.
        """

        def __del__(self) -> None:
            try:
                super().__del__()
            except BufferError:
                pass

        def unlink(self) -> None:
            """Destroy the name without touching the resource tracker.

            Our segments are deliberately *not* tracker-registered (see
            :func:`_untrack`); the stdlib ``unlink`` sends an unbalanced
            unregister that the tracker logs as a KeyError.  Go straight
            to ``shm_unlink`` instead.
            """
            if getattr(shared_memory, "_USE_POSIX", False) and self._name:
                shared_memory._posixshmem.shm_unlink(self._name)
            else:  # pragma: no cover - Windows
                super().unlink()

else:  # pragma: no cover - stdlib always ships shared_memory on 3.8+
    _QuietSharedMemory = None  # type: ignore[assignment,misc]

_MAGIC = b"RPSHMG01"
_MAGIC_OFF = 0
_REFCOUNT_OFF = 8
_HEADER_LEN_OFF = 16
_HEADER_OFF = 24
_ALIGN = 64

#: The magic doubles as the segment's *ready flag*: export writes it
#: only after every payload byte (refcount, header, vertices, CSR
#: arrays) has landed, so an attacher that maps the segment mid-copy
#: polls for it instead of silently reading a partially-populated
#: graph.  A segment that never becomes ready within the timeout (a
#: crashed exporter's leftovers) raises ``ValueError`` from ``attach``.
_READY_TIMEOUT = 5.0
_READY_POLL = 0.002


def shm_available() -> bool:
    """Whether zero-copy graph sharing can be used in this environment."""
    return shared_memory is not None and np is not None and scipy_available()


def _require_shm() -> None:
    if not shm_available():
        raise BackendUnavailableError(
            "shared-memory graph store requires multiprocessing."
            "shared_memory, NumPy and SciPy"
        )


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _untrack(name: str) -> None:
    """Drop *name* from this process's resource tracker.

    Before Python 3.13 the tracker unlinks every registered segment when
    its registering process exits — an attacher exiting would tear down
    a segment other processes still serve from, and with refcounted
    ownership even the creator's registration mis-fires (tracker
    processes are shared across forks, so one worker's exit-time cleanup
    clobbers its siblings).  Segments here are therefore *never*
    tracker-registered: create and attach both unregister immediately,
    and the supervisor sweep (:func:`unlink_segment` over the announce
    log) is the crash backstop.
    """
    if resource_tracker is None:  # pragma: no cover - stdlib ships it
        return
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker variance across 3.x
        pass


def _adjust_refcount(shm: "shared_memory.SharedMemory", delta: int) -> int:
    """Atomically add *delta* to the in-segment refcount; return it.

    The lock is ``flock`` on the shared mapping's fd when the platform
    exposes one (Linux tmpfs does); elsewhere the count is still
    maintained but races are tolerated — the supervisor sweep remains
    the authoritative cleanup.
    """
    fd = getattr(shm, "_fd", -1)
    locked = False
    if fcntl is not None and isinstance(fd, int) and fd >= 0:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            locked = True
        except OSError:  # pragma: no cover - exotic filesystems
            pass
    try:
        (count,) = struct.unpack_from("<Q", shm.buf, _REFCOUNT_OFF)
        count = max(0, int(count) + delta)
        struct.pack_into("<Q", shm.buf, _REFCOUNT_OFF, count)
        return count
    finally:
        if locked:
            fcntl.flock(fd, fcntl.LOCK_UN)


class SharedGraphSegment:
    """One mapped shared-memory segment holding a prepared graph.

    Created by :meth:`SharedGraphStore.export` (``created=True``) or
    :meth:`SharedGraphStore.attach`; both hold one unit of the segment's
    refcount until :meth:`close`.
    """

    def __init__(
        self,
        name: str,
        shm: "shared_memory.SharedMemory",
        header: Dict[str, Any],
        created: bool,
    ) -> None:
        self.name = name
        self.shm = shm
        self.header = header
        self.created = created
        self.fingerprint: str = header["fingerprint"]
        self._closed = False
        self._vertices: Optional[List[Any]] = None
        self._csr: Optional[CSRAdjacency] = None
        self._csr_plus: Optional[CSRAdjacency] = None

    # -- views ---------------------------------------------------------
    def _array(self, key: str) -> "np.ndarray":
        spec = self.header["arrays"][key]
        view = np.frombuffer(
            self.shm.buf,
            dtype=np.dtype(spec["dtype"]),
            count=int(spec["count"]),
            offset=int(spec["offset"]),
        )
        view.flags.writeable = False
        return view

    @property
    def vertices(self) -> List[Any]:
        """The shared vertex order (unpickled once per segment)."""
        if self._vertices is None:
            spec = self.header["vertices"]
            start = int(spec["offset"])
            end = start + int(spec["length"])
            self._vertices = pickle.loads(bytes(self.shm.buf[start:end]))
        return self._vertices

    def csr(self) -> CSRAdjacency:
        """Read-only zero-copy ``GD`` adjacency over the segment."""
        if self._csr is None:
            self._csr = CSRAdjacency(
                self.vertices,
                self._array("gd_indptr"),
                self._array("gd_indices"),
                self._array("gd_data"),
            )
        return self._csr

    def csr_plus(self) -> CSRAdjacency:
        """Read-only zero-copy ``GD+`` adjacency over the segment."""
        if self._csr_plus is None:
            self._csr_plus = CSRAdjacency(
                self.vertices,
                self._array("plus_indptr"),
                self._array("plus_indices"),
                self._array("plus_data"),
            )
        return self._csr_plus

    def refcount(self) -> int:
        """Current in-segment reference count (diagnostic)."""
        (count,) = struct.unpack_from("<Q", self.shm.buf, _REFCOUNT_OFF)
        return int(count)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> bool:
        """Release this mapping's refcount unit; unlink when drained.

        Returns True when this close unlinked the segment.  Safe to call
        more than once.  The OS mapping itself is released best-effort:
        live numpy views keep the exported buffer alive (``BufferError``
        from ``SharedMemory.close``), in which case the mapping is left
        to the garbage collector — the *name* is already gone, so no
        leak survives the process.
        """
        if self._closed:
            return False
        self._closed = True
        remaining = _adjust_refcount(self.shm, -1)
        unlinked = False
        if remaining == 0:
            try:
                self.shm.unlink()
                unlinked = True
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
        try:
            self.shm.close()
        except BufferError:
            # In-flight solver views still reference the buffer; POSIX
            # keeps the mapping valid after unlink, and GC finishes the
            # close once the views die.
            pass
        return unlinked

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"refs={self.refcount()}"
        return f"<SharedGraphSegment {self.name} {state}>"


class SharedGraphStore:
    """Per-process manager of exported/attached graph segments.

    Segment names are ``{prefix}_{fingerprint[:16]}`` — the prefix keys
    one *cluster* (all workers of one ``repro serve`` share it), so
    leak audits and shutdown sweeps can enumerate exactly their own
    segments in ``/dev/shm`` without touching unrelated tenants.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        _require_shm()
        self.prefix = prefix if prefix else f"rp{secrets.token_hex(4)}"
        self._lock = threading.Lock()
        self._segments: Dict[str, SharedGraphSegment] = {}
        self.exports = 0
        self.attaches = 0

    def segment_name(self, fingerprint: str) -> str:
        """Deterministic segment name for a content fingerprint."""
        # Short enough for macOS' PSHMNAMLEN (31 incl. the leading /).
        return f"{self.prefix}_{fingerprint[:16]}"

    # -- export --------------------------------------------------------
    def export(self, prepared: PreparedGraph) -> SharedGraphSegment:
        """Lay *prepared*'s frozen arrays out in a shared segment.

        Idempotent per fingerprint: a second export (same process or a
        racing sibling worker) attaches the existing segment.
        """
        fingerprint = prepared.fingerprint
        name = self.segment_name(fingerprint)
        with self._lock:
            cached = self._segments.get(name)
            if cached is not None:
                return cached
        csr = prepared.require_csr(positive=False)
        csr_plus = prepared.require_csr(positive=True)
        vertices_blob = pickle.dumps(csr.vertices, protocol=4)

        arrays: List[Tuple[str, "np.ndarray"]] = [
            ("gd_indptr", csr.indptr),
            ("gd_indices", csr.indices),
            ("gd_data", csr.data),
            ("plus_indptr", csr_plus.indptr),
            ("plus_indices", csr_plus.indices),
            ("plus_data", csr_plus.data),
        ]
        specs: Dict[str, Dict[str, Any]] = {}
        # Header length depends on offsets which depend on header length;
        # compute with placeholder offsets first, then fix the layout.
        header: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "n": len(csr.vertices),
            "vertices": {"offset": 0, "length": len(vertices_blob)},
            "arrays": specs,
        }
        for key, array in arrays:
            specs[key] = {
                "dtype": array.dtype.str,
                "count": int(array.size),
                "offset": 0,
            }
        # Offsets are fixed-width formatted so the serialized header
        # length does not change when the real offsets are patched in.
        blob = json.dumps(header).encode("utf-8")
        pad = 24  # digits reserved per patched offset
        cursor = _align(_HEADER_OFF + len(blob) + (len(arrays) + 1) * pad)
        header["vertices"]["offset"] = cursor
        cursor = _align(cursor + len(vertices_blob))
        for key, array in arrays:
            specs[key]["offset"] = cursor
            cursor = _align(cursor + array.nbytes)
        blob = json.dumps(header).encode("utf-8")
        total = cursor

        try:
            shm = _QuietSharedMemory(name=name, create=True, size=total)
            _untrack(name)
        except FileExistsError:
            # A sibling worker won the race (or a previous generation
            # left the segment); serve from theirs.  ``attach`` waits
            # for the winner's ready flag, so a mid-copy segment is
            # never served — and raises ValueError if it never becomes
            # ready (crashed exporter), which callers treat as
            # "sharing unavailable for this graph".
            return self.attach(name)
        # Payload first, magic (the ready flag) last: a racing attacher
        # of the same fingerprint polls for the magic, so it can never
        # map a partially-populated graph.
        struct.pack_into("<Q", shm.buf, _REFCOUNT_OFF, 1)
        struct.pack_into("<Q", shm.buf, _HEADER_LEN_OFF, len(blob))
        shm.buf[_HEADER_OFF:_HEADER_OFF + len(blob)] = blob
        start = int(header["vertices"]["offset"])
        shm.buf[start:start + len(vertices_blob)] = vertices_blob
        for key, array in arrays:
            spec = specs[key]
            dest = np.frombuffer(
                shm.buf,
                dtype=array.dtype,
                count=int(array.size),
                offset=int(spec["offset"]),
            )
            dest[:] = array
        struct.pack_into("<8s", shm.buf, _MAGIC_OFF, _MAGIC)
        segment = SharedGraphSegment(name, shm, header, created=True)
        with self._lock:
            raced = self._segments.setdefault(name, segment)
            if raced is not segment:  # pragma: no cover - defensive
                segment.close()
                return raced
        self.exports += 1
        return segment

    # -- attach --------------------------------------------------------
    def attach(self, name: str) -> SharedGraphSegment:
        """Map an existing segment by name (cached per store).

        Raises FileNotFoundError when the segment does not exist (the
        owner evicted and unlinked it) and ValueError when it never
        becomes ready (not a graph segment, or a crashed exporter left
        it half-written); callers fall back to a rebuild either way.
        """
        with self._lock:
            cached = self._segments.get(name)
            if cached is not None:
                return cached
        shm = _QuietSharedMemory(name=name)
        _untrack(name)
        # The exporter writes the magic last: poll for it so a racing
        # attach never reads a segment whose arrays are still landing.
        deadline = time.monotonic() + _READY_TIMEOUT
        while bytes(shm.buf[_MAGIC_OFF:_MAGIC_OFF + 8]) != _MAGIC:
            if time.monotonic() >= deadline:
                shm.close()
                raise ValueError(
                    f"segment {name!r} is not a ready repro graph segment"
                )
            time.sleep(_READY_POLL)
        (header_len,) = struct.unpack_from("<Q", shm.buf, _HEADER_LEN_OFF)
        blob = bytes(shm.buf[_HEADER_OFF:_HEADER_OFF + int(header_len)])
        header = json.loads(blob.decode("utf-8"))
        _adjust_refcount(shm, 1)
        segment = SharedGraphSegment(name, shm, header, created=False)
        with self._lock:
            raced = self._segments.setdefault(name, segment)
            if raced is not segment:
                segment.close()
                return raced
        self.attaches += 1
        return segment

    def attach_fingerprint(self, fingerprint: str) -> SharedGraphSegment:
        """Attach by content fingerprint under this store's prefix."""
        return self.attach(self.segment_name(fingerprint))

    # -- lifecycle -----------------------------------------------------
    def release(self, name: str) -> bool:
        """Close and forget one segment; True when that unlinked it."""
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is None:
            return False
        return segment.close()

    def close_all(self) -> int:
        """Close every held segment; returns how many were unlinked."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
        return sum(1 for segment in segments if segment.close())

    def held(self) -> List[str]:
        """Names of currently mapped segments (diagnostic)."""
        with self._lock:
            return sorted(self._segments)

    def __repr__(self) -> str:
        return (
            f"<SharedGraphStore prefix={self.prefix} "
            f"held={len(self.held())} exports={self.exports} "
            f"attaches={self.attaches}>"
        )


# ----------------------------------------------------------------------
# prepared-graph integration
# ----------------------------------------------------------------------
class SharedPreparedGraph(PreparedGraph):
    """An array-first :class:`PreparedGraph` served from a shared segment.

    CSR artefacts are zero-copy views; the dict-of-dicts ``GD``/``GD+``
    (read by the pure-python backend and the sparse solvers' dict
    checks) are built lazily from the CSR arrays — the CSR stores
    weights bit-exact, so they fingerprint identically to the original
    graph.
    """

    __slots__ = ()

    def __init__(self, segment: SharedGraphSegment) -> None:
        super().__init__(csr=segment.csr(), fingerprint=segment.fingerprint)
        self._shared = segment
        self._csr_plus = segment.csr_plus()


def shared_prepared(segment: SharedGraphSegment) -> SharedPreparedGraph:
    """Wrap an attached segment as a solver-ready preparation."""
    return SharedPreparedGraph(segment)


def graph_from_csr(csr: CSRAdjacency) -> Graph:
    """Build the dict-of-dicts :class:`Graph` held by a CSR.

    Inverse of :meth:`CSRAdjacency.from_graph` up to insertion order:
    vertices and each vertex's neighbours follow the CSR's repr order.
    One dict comprehension per row (:meth:`Graph.from_csr_rows`), no
    ``add_edge`` calls; weights are bit-exact (float64 both sides), so
    the result fingerprints identically to the arrays.  NumPy only: an
    array-first :class:`PreparedGraph` builds its ``GD`` and ``GD+``
    through this with or without SciPy.
    """
    return Graph.from_csr_rows(
        csr.vertices,
        csr.indptr.tolist(),
        csr.indices.tolist(),
        csr.data.tolist(),
    )


# ----------------------------------------------------------------------
# host-level audits
# ----------------------------------------------------------------------
def list_segments(prefix: str) -> List[str]:
    """Names under ``/dev/shm`` starting with *prefix* (Linux audit).

    Returns an empty list on platforms without a visible shm filesystem
    — tests gate on that, production cleanup never depends on it.
    """
    import os

    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(
        entry for entry in os.listdir(root) if entry.startswith(prefix)
    )


def unlink_segment(name: str) -> bool:
    """Best-effort unlink by name — the supervisor's crash backstop."""
    if shared_memory is None:  # pragma: no cover - stdlib ships it
        return False
    try:
        shm = _QuietSharedMemory(name=name)
    except FileNotFoundError:
        return False
    _untrack(name)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - concurrent sweep
        return False
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - no views here
            pass
    return True
