"""SolveRequest / SolveResult — the one typed result envelope.

Every delivery layer used to shape its own answers: the CLI printed
from ``DCSADResult``/``DCSGAResult`` attributes, the batch executor
hand-rolled JSON dicts per query kind, the streaming engine had its
``SolveOutcome`` and the monitor its ``ContrastAlert`` — four shapes
for the same two solvers.  This module is the common envelope:

* :class:`SolveRequest` — *what to solve*: the measure
  (``average_degree`` → DCSGreedy / Algorithm 2, ``affinity`` → NewSEA
  / Algorithm 5), the backend name, ``k``/``strategy`` for top-k, and
  the solver tolerances.  One canonical ``params()`` dict doubles as
  cache-key material.
* :class:`SolveResult` — *what came out*: the answer subset (raw vertex
  objects for in-process consumers, sorted string labels in JSON), the
  headline ``density`` (average-degree contrast or affinity objective),
  the Theorem 2 ``beta`` certificate where it applies, the KKT /
  positive-clique status where *that* applies, measure-specific
  ``detail``, plus ``timings`` and ``provenance`` that are excluded
  from the canonical JSON (so byte-identity across serial / pooled /
  cached executions is a property of the *answer*, not the wall clock).
  ``ranked`` holds the raw :class:`~repro.core.topk.RankedDCS` rows
  (one row when ``k=1``) for in-process consumers such as the stream
  engine; it is not part of the JSON either.
* :func:`solve` — run a request against a
  :class:`~repro.engine.prepared.PreparedGraph`, reusing its shared
  ``GD+`` and frozen CSR adjacencies.

JSON layout of :meth:`SolveResult.payload` (also the canonical bytes)::

    {"kind": "dcsad" | "dcsga",
     "measure": "average_degree" | "affinity",
     "params": {...},                  # canonical solver parameters
     "vertices": ["a", "b", ...],      # the (best) answer, sorted
     "density": 3.25,                  # headline score
     "beta": 1.08 | null,              # Theorem 2 certificate (DCSAD)
     "kkt": {"is_kkt_point": true,     # DCSGA status (null for DCSAD)
             "is_positive_clique": true} | null,
     "detail": {...}}                  # winner / embedding / top-k ...
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional

from repro.engine.prepared import PreparedGraph
from repro.engine.registry import resolve_backend

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.topk import RankedDCS
    from repro.graph.graph import Vertex

#: Contrast measures and the algorithm each selects.
MEASURES = ("average_degree", "affinity")

#: measure <-> the CLI / batch query-kind vocabulary.
KIND_OF_MEASURE = {"average_degree": "dcsad", "affinity": "dcsga"}
MEASURE_OF_KIND = {kind: measure for measure, kind in KIND_OF_MEASURE.items()}


@dataclass(frozen=True)
class SolveRequest:
    """A typed DCS solve order, independent of delivery layer."""

    measure: str
    backend: str = "python"
    k: int = 1
    strategy: str = "vertices"
    tol_scale: float = 1e-2
    #: report the KKT / positive-clique status of affinity answers
    #: (skipped by per-step streaming solves to keep the hot path lean)
    check_kkt: bool = True

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; expected one of {MEASURES}"
            )
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ValueError(
                f"tol_scale must be a finite positive number, got {self.tol_scale!r}"
            )

    @property
    def kind(self) -> str:
        """The query-kind name (``dcsad``/``dcsga``) of this measure."""
        return KIND_OF_MEASURE[self.measure]

    @classmethod
    def from_params(cls, kind: str, params: Dict[str, Any]) -> "SolveRequest":
        """Build a request from a batch-layer ``solve_params()`` dict."""
        if kind not in MEASURE_OF_KIND:
            raise ValueError(f"unknown query kind {kind!r}")
        return cls(
            measure=MEASURE_OF_KIND[kind],
            backend=params.get("backend", "python"),
            k=params.get("k", 1),
            strategy=params.get("strategy", "vertices"),
            tol_scale=params.get("tol_scale", 1e-2),
        )

    def params(self) -> Dict[str, Any]:
        """Canonical parameter dict (mirrors the batch cache identity)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "backend": self.backend,
            "k": self.k,
            "tol_scale": self.tol_scale,
        }
        if self.measure == "average_degree":
            out["strategy"] = self.strategy
        return out


@dataclass
class SolveResult:
    """One solved request: raw objects for callers, canonical JSON out."""

    measure: str
    params: Dict[str, Any]
    subset: FrozenSet["Vertex"]
    density: float
    beta: Optional[float] = None
    kkt: Optional[Dict[str, bool]] = None
    embedding: Optional[Dict["Vertex", float]] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    #: the raw answers, best first (one row when ``k=1``); in-process
    #: only — neither :meth:`payload` nor the cache carries them
    ranked: List["RankedDCS"] = field(default_factory=list)
    #: flat ``solve_seconds`` always; ``phases`` (name → self-time
    #: seconds) when the solve ran under a recording tracer
    timings: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return KIND_OF_MEASURE[self.measure]

    @property
    def vertices(self) -> List[str]:
        """The answer's vertex labels, sorted (the JSON form)."""
        return sorted(str(v) for v in self.subset)

    def payload(self) -> Dict[str, Any]:
        """The JSON-ready *answer* — no timings, no provenance."""
        return {
            "kind": self.kind,
            "measure": self.measure,
            "params": dict(self.params),
            "vertices": self.vertices,
            "density": self.density,
            "beta": self.beta,
            "kkt": dict(self.kkt) if self.kkt is not None else None,
            "detail": self.detail,
        }

    def canonical_json(self) -> str:
        """Byte-stable identity of the answer (sorted keys, no noise)."""
        return json.dumps(self.payload(), sort_keys=True)

    def to_record(self) -> Dict[str, Any]:
        """The full record: answer + timings + provenance."""
        record = self.payload()
        record["timings"] = dict(self.timings)
        record["provenance"] = dict(self.provenance)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


def _embedding_json(x: Dict[Any, float]) -> Dict[str, float]:
    return {str(u): w for u, w in sorted(x.items(), key=lambda kv: str(kv[0]))}


def solve(request: SolveRequest, prepared: PreparedGraph) -> SolveResult:
    """Run *request* on a prepared difference graph.

    All preparation flows through *prepared*: the positive part is
    built at most once and the frozen CSR adjacencies are handed to any
    CSR-capable backend — a paired DCSAD+DCSGA workload on one graph
    pays for one ``GD+`` and one CSR freeze, total.

    When a recording tracer is active (``repro --profile``/``--json``,
    the batch workers, the service solve route), the whole call runs
    under a root ``solve`` span and ``timings`` gains the derived
    per-phase breakdown: ``timings["phases"]`` maps phase name →
    self-time seconds (see :func:`repro.obs.trace.phase_totals`), whose
    values sum to the root span's duration.  With the default no-op
    tracer, ``timings`` stays the flat ``{"solve_seconds": ...}``.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    backend = resolve_backend(request.backend)
    start = time.perf_counter()
    with tracer.span(
        "solve", kind=request.kind, backend=backend.name
    ) as root:
        if request.measure == "average_degree":
            result = _solve_average_degree(request, prepared)
        else:
            result = _solve_affinity(request, prepared)
    result.timings["solve_seconds"] = time.perf_counter() - start
    if not tracer.is_noop:
        from repro.obs.trace import phase_totals

        # The breakdown rides in timings — out-of-band like
        # solve_seconds, so answer identity (payload/provenance) stays
        # byte-identical between traced and untraced runs.
        result.timings["phases"] = phase_totals([root])
    result.provenance["backend"] = backend.name
    fingerprint = prepared.cached_fingerprint
    if fingerprint is not None:
        result.provenance["fingerprint"] = fingerprint
    return result


def _solve_average_degree(
    request: SolveRequest, prepared: PreparedGraph
) -> SolveResult:
    from repro.core.dcsad import dcs_greedy
    from repro.core.topk import RankedDCS, top_k_dcsad

    if request.k <= 1:
        answer = dcs_greedy(
            prepared.gd,
            backend=request.backend,
            prepared=prepared,
        )
        return SolveResult(
            measure=request.measure,
            params=request.params(),
            subset=frozenset(answer.subset),
            density=answer.density,
            beta=answer.ratio_bound,
            detail={
                "winner": answer.winner,
                "connected": answer.connected,
                "candidate_densities": dict(answer.candidate_densities),
            },
            ranked=[RankedDCS(0, set(answer.subset), answer.density)],
        )
    ranked = top_k_dcsad(
        prepared.gd,
        request.k,
        strategy=request.strategy,
        backend=request.backend,
    )
    best = ranked[0] if ranked else None
    return SolveResult(
        measure=request.measure,
        params=request.params(),
        subset=frozenset(best.subset) if best else frozenset(),
        density=best.objective if best else 0.0,
        detail={
            "results": [
                {
                    "rank": item.rank,
                    "vertices": sorted(str(v) for v in item.subset),
                    "density": item.objective,
                }
                for item in ranked
            ]
        },
        ranked=ranked,
    )


def _solve_affinity(
    request: SolveRequest, prepared: PreparedGraph
) -> SolveResult:
    from repro.core.newsea import new_sea
    from repro.core.topk import RankedDCS, top_k_dcsga

    backend = resolve_backend(request.backend)
    gd_plus = prepared.gd_plus
    adjacency = (
        prepared.csr_plus() if backend.supports_shared_adjacency else None
    )
    if request.k <= 1:
        answer = new_sea(
            gd_plus,
            tol_scale=request.tol_scale,
            backend=request.backend,
            adjacency=adjacency,
        )
        kkt: Optional[Dict[str, bool]] = None
        if request.check_kkt:
            from repro.core.kkt import is_kkt_point

            kkt = {
                "is_kkt_point": is_kkt_point(
                    gd_plus, answer.x, tol=request.tol_scale
                ),
                "is_positive_clique": answer.is_positive_clique,
            }
        embedding = dict(answer.x)
        return SolveResult(
            measure=request.measure,
            params=request.params(),
            subset=frozenset(answer.support),
            density=answer.objective,
            kkt=kkt,
            embedding=embedding,
            detail={
                "embedding": _embedding_json(answer.x),
                "is_positive_clique": answer.is_positive_clique,
                "initializations": answer.initializations,
                "expansion_errors": answer.expansion_errors,
            },
            ranked=[
                RankedDCS(0, set(answer.support), answer.objective, embedding)
            ],
        )
    ranked = top_k_dcsga(
        gd_plus,
        request.k,
        tol_scale=request.tol_scale,
        backend=request.backend,
        adjacency=adjacency,
    )
    best = ranked[0] if ranked else None
    return SolveResult(
        measure=request.measure,
        params=request.params(),
        subset=frozenset(best.subset) if best else frozenset(),
        density=best.objective if best else 0.0,
        embedding=dict(best.embedding) if best and best.embedding else None,
        detail={
            "results": [
                {
                    "rank": item.rank,
                    "vertices": sorted(str(v) for v in item.subset),
                    "density": item.objective,
                    "embedding": _embedding_json(item.embedding or {}),
                }
                for item in ranked
            ]
        },
        ranked=ranked,
    )
