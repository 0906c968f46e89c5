"""Content-addressed result cache for batch queries.

A cached answer is keyed by **what was computed on what**, never by how
the input was named: the key digests the input's content fingerprint
(:func:`repro.graph.sparse.graph_fingerprint`) together with the query's
canonical solver parameters.  Consequences:

* resubmitting a query is free, whatever path or dataset alias it used;
* an input file changing on disk changes the fingerprint, so stale
  answers can never be served;
* cache entries are plain JSON payloads — exactly the bytes the
  executor would have produced — so a hit is byte-identical to a solve.

The cache is an in-memory dict, optionally spilled to a directory
(one ``<key>.json`` per entry) so it survives across processes and CLI
invocations.  Writes go to a temp file then ``os.replace`` — concurrent
writers at worst do redundant work, never corrupt an entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import threading
from typing import Any, Dict, Optional, Union

PathLike = Union[str, os.PathLike]


def canonical_params(value: Any) -> Any:
    """Numerically canonical copy of a parameter structure.

    JSON has one number line, Python has two: ``alpha=1`` and
    ``alpha=1.0`` describe the same computation but serialise to
    different bytes, so hashing raw ``json.dumps`` output would give
    them different cache keys (spurious misses).  Int-valued floats are
    therefore normalised to ints before hashing.  Non-finite floats are
    rejected outright — ``NaN`` never compares equal to itself, so a key
    digesting one could never be *meant*; it is an input error.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite parameter value {value!r} cannot be cached"
            )
        if value.is_integer():
            return int(value)
        return value
    if isinstance(value, dict):
        return {key: canonical_params(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_params(item) for item in value]
    return value


def canonical_text(payload: Any) -> str:
    """The one byte form of a JSON payload: sorted keys, no whitespace.

    Everything content-addressed — key material and stored entries —
    goes through this, so equality of answers is equality of bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(fingerprint: str, params: Dict[str, Any]) -> str:
    """The content address of one answer: sha256 over input + params.

    Parameters are canonicalised first (:func:`canonical_params`), so
    numerically equal queries share an entry however they spelled their
    numbers.
    """
    material = canonical_text(
        {"fingerprint": fingerprint, "params": canonical_params(params)}
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Memoised query results, content-addressed.

    ``directory=None`` keeps the cache purely in-memory (one executor's
    lifetime); a directory makes it persistent.  ``hits`` / ``misses`` /
    ``stores`` expose effectiveness to benchmarks and the CLI summary.

    Thread-safe: the query service shares one instance between its
    event loop and its worker threads, so lookups, stores and the
    counters mutate under a lock (counter read-modify-writes are not
    atomic on their own).
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        #: key -> canonical JSON text.  Entries are stored *serialised*
        #: so a caller mutating a returned payload (or the dict it was
        #: stored from) can never poison later hits — every get() hands
        #: out a fresh structure.
        self._memory: Dict[str, str] = {}
        self._lock = threading.Lock()
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        with self._lock:
            keys = set(self._memory)
        if self.directory is None:
            return len(keys)
        on_disk = {p.stem for p in self.directory.glob("*.json")}
        return len(on_disk | keys)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for *key*, or None (counts hit/miss)."""
        with self._lock:
            text = self._memory.get(key)
        if text is None and self.directory is not None:
            path = self.directory / f"{key}.json"
            if path.exists():
                try:
                    text = path.read_text(encoding="utf-8")
                    json.loads(text)  # reject corrupt entries
                except (OSError, json.JSONDecodeError):
                    text = None
                else:
                    with self._lock:
                        self._memory[key] = text
        with self._lock:
            if text is None:
                self.misses += 1
                return None
            self.hits += 1
        payload: Dict[str, Any] = json.loads(text)
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* under *key* (memory, then disk if configured).

        Entries are serialised with :func:`canonical_text` — the same
        compact byte form the executor's canonical JSON uses — so a
        disk round-trip is byte-identical to a fresh solve, which is
        the cache's documented contract.
        """
        text = canonical_text(payload)
        with self._lock:
            self._memory[key] = text
            self.stores += 1
        if self.directory is None:
            return
        path = self.directory / f"{key}.json"
        tmp = self.directory / f".{key}.tmp.{os.getpid()}-{threading.get_ident()}"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        with self._lock:
            self._memory.clear()
        if self.directory is not None:
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
