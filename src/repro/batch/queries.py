"""Typed batch queries — the request vocabulary of the batch service.

A :class:`BatchQuery` names *what to mine* (``kind``), *on which input*
(a :class:`GraphSource`), and *with which parameters* (difference
transform + solver settings).  The vocabulary deliberately mirrors the
``repro`` CLI so that one JSON record and one CLI invocation describe
the same computation:

========  =====================================================
kind      computation
========  =====================================================
dcsad     DCSGreedy (``k > 1`` -> iterated top-k, Alg. 2 rounds)
dcsga     NewSEA (``k > 1`` -> ranked positive cliques)
========  =====================================================

Sources come in three flavours: ``files`` (two edge-list paths, the CLI
input format), ``registry`` (a Table II row by ``Data/Setting/GDType``
name) and ``inline`` (an in-memory graph or pair — programmatic callers
and benchmarks; not JSON-serialisable).

Everything JSON-facing round-trips through :func:`query_to_dict` /
:func:`query_from_dict`; :func:`read_queries` accepts either a JSON
array or JSONL, one query object per line.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.engine.prepared import PreparedGraph

#: Query kinds.
KINDS = ("dcsad", "dcsga")


def _check_kind(kind: object) -> None:
    if kind not in KINDS:
        raise InputMismatchError(
            f"unknown query kind {kind!r}; expected one of {KINDS}"
        )


@dataclass(frozen=True)
class GraphSource:
    """Where a query's input comes from.

    Exactly one flavour is populated:

    * ``files``    — *g1* and *g2* edge-list paths;
    * ``registry`` — *dataset* (``Data/Setting/GDType``) at *scale*;
    * ``inline``   — *graph* (a prebuilt difference graph) or *pair*
      (``(G1, G2)``); in-memory only.
    """

    kind: str
    g1: Optional[str] = None
    g2: Optional[str] = None
    dataset: Optional[str] = None
    scale: float = 1.0
    graph: Optional[Union[Graph, "PreparedGraph"]] = field(
        default=None, compare=False
    )
    pair: Optional[Tuple[Graph, Graph]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "files":
            if not self.g1 or not self.g2:
                raise InputMismatchError("files source needs both g1 and g2")
        elif self.kind == "registry":
            if not self.dataset:
                raise InputMismatchError("registry source needs a dataset name")
        elif self.kind == "inline":
            if (self.graph is None) == (self.pair is None):
                raise InputMismatchError(
                    "inline source needs exactly one of graph= or pair="
                )
        else:
            raise InputMismatchError(f"unknown source kind {self.kind!r}")

    @classmethod
    def from_files(cls, g1: str, g2: str) -> "GraphSource":
        return cls(kind="files", g1=str(g1), g2=str(g2))

    @classmethod
    def from_registry(cls, dataset: str, scale: float = 1.0) -> "GraphSource":
        return cls(kind="registry", dataset=dataset, scale=scale)

    @classmethod
    def from_graph(
        cls, graph: Union[Graph, "PreparedGraph"]
    ) -> "GraphSource":
        return cls(kind="inline", graph=graph)

    @classmethod
    def from_pair(cls, g1: Graph, g2: Graph) -> "GraphSource":
        return cls(kind="inline", pair=(g1, g2))

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "files":
            return {"g1": self.g1, "g2": self.g2}
        if self.kind == "registry":
            out: Dict[str, Any] = {"dataset": self.dataset}
            if self.scale != 1.0:
                out["scale"] = self.scale
            return out
        raise InputMismatchError(
            "inline sources are in-memory only and cannot be serialised"
        )


@dataclass(frozen=True)
class BatchQuery:
    """One typed DCS query of a batch.

    Difference parameters (*alpha*, *flip*, *discrete*, *cap*) shape the
    preprocessing; solver parameters (*backend*, *k*, *strategy*,
    *tol_scale*) shape the solve.  *backend* may name any backend the
    engine registry knows (``native``, aliases, plugins); a typo fails
    at construction.  *timeout* (seconds) bounds this query's solve in
    the executor; ``None`` inherits the executor default.
    """

    kind: str
    source: GraphSource
    qid: str = ""
    # difference transform
    alpha: float = 1.0
    flip: bool = False
    discrete: bool = False
    cap: Optional[float] = None
    # solver
    backend: str = "python"
    k: int = 1
    strategy: str = "vertices"
    tol_scale: float = 1e-2
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.engine.registry import backend_names

        _check_kind(self.kind)
        if self.backend not in backend_names():
            raise InputMismatchError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{backend_names()}"
            )
        if self.k <= 0:
            raise InputMismatchError("k must be positive")
        if self.kind == "dcsad" and self.strategy not in ("vertices", "edges"):
            raise InputMismatchError(
                f"unknown removal strategy {self.strategy!r}"
            )

    def with_qid(self, qid: str) -> "BatchQuery":
        return replace(self, qid=qid)

    def solve_params(self) -> Dict[str, Any]:
        """The solver-facing parameters, canonically keyed.

        Together with the input fingerprint this is the identity of the
        *answer* — the content-addressed cache key material.  Source
        naming (paths, dataset names) is deliberately excluded: two
        routes to the same graph share cached results.
        """
        params: Dict[str, Any] = {
            "kind": self.kind,
            "backend": self.backend,
            "k": self.k,
            "tol_scale": self.tol_scale,
        }
        if self.kind == "dcsad":
            params["strategy"] = self.strategy
        return params


#: Fields carried verbatim in query records (everything except the
#: structurally-handled kind/source/qid), with defaults taken from the
#: dataclass itself so serialisation can never drift from the schema.
_PARAM_DEFAULTS: Dict[str, Any] = {
    f.name: f.default
    for f in dataclasses.fields(BatchQuery)
    if f.name not in ("kind", "source", "qid")
}


def query_to_dict(query: BatchQuery) -> Dict[str, Any]:
    """Serialise a query as a plain JSON-ready dict (defaults omitted)."""
    out: Dict[str, Any] = {"kind": query.kind}
    if query.qid:
        out["qid"] = query.qid
    out.update(query.source.to_dict())
    for name, default in _PARAM_DEFAULTS.items():
        value = getattr(query, name)
        if value != default:
            out[name] = value
    return out


def query_from_dict(
    record: Dict[str, Any],
    qid: str = "",
    graph_resolver: Optional[
        Callable[[str], Union[Graph, "PreparedGraph"]]
    ] = None,
) -> BatchQuery:
    """Parse one query object (inverse of :func:`query_to_dict`).

    *graph_resolver* extends the source vocabulary with ``{"graph":
    name}`` records: the callable maps a name to an already-assembled
    difference graph (the query service resolves through its warm
    registry).  Without a resolver, ``graph`` references are rejected —
    file-based submissions have no registry to resolve against.
    """
    if not isinstance(record, dict):
        raise InputMismatchError(f"query record must be an object: {record!r}")
    data = dict(record)
    kind = data.pop("kind", None)
    if kind is None:
        raise InputMismatchError(f"query record has no 'kind': {record!r}")
    _check_kind(kind)
    qid = str(data.pop("qid", qid))
    if "graph" in data:
        if graph_resolver is None:
            raise InputMismatchError(
                "'graph' references need a resolver (they are served by "
                f"the query service's registry): {record!r}"
            )
        source = GraphSource.from_graph(graph_resolver(str(data.pop("graph"))))
    elif "dataset" in data:
        source = GraphSource.from_registry(
            data.pop("dataset"), scale=float(data.pop("scale", 1.0))
        )
    elif "g1" in data or "g2" in data:
        g1, g2 = data.pop("g1", None), data.pop("g2", None)
        if not g1 or not g2:
            raise InputMismatchError(
                f"files input needs both g1 and g2: {record!r}"
            )
        source = GraphSource.from_files(g1, g2)
    else:
        raise InputMismatchError(
            "query record names no input "
            f"(g1/g2, dataset or graph): {record!r}"
        )
    unknown = set(data) - set(_PARAM_DEFAULTS)
    if unknown:
        raise InputMismatchError(
            f"unknown query fields {sorted(unknown)} in {record!r}"
        )
    # JSON generators often emit 3.0 for 3; accept integral floats here
    # so the mistake surfaces as a parse error, not an opaque solver
    # failure later.
    k = data.get("k")
    if isinstance(k, float):
        if not k.is_integer():
            raise InputMismatchError(f"k must be an integer, got {k!r}")
        data["k"] = int(k)
    elif k is not None and not isinstance(k, int):
        raise InputMismatchError(f"k must be an integer, got {k!r}")
    return BatchQuery(kind=kind, source=source, qid=qid, **data)


def read_queries(source: Union[str, IO[str]]) -> List[BatchQuery]:
    """Read a query file: a JSON array, or JSONL (one object per line).

    Queries without an explicit ``qid`` are labelled ``q0, q1, ...`` by
    position; explicit qids must be unique.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as stream:
            text = stream.read()
    else:
        text = source.read()
    stripped = text.lstrip()
    records: List[Dict[str, Any]]
    if not stripped:
        records = []
    elif stripped.startswith("["):
        loaded = json.loads(text)
        if not isinstance(loaded, list):
            raise InputMismatchError("top-level JSON must be an array")
        records = loaded
    else:
        records = [
            json.loads(line)
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    return assign_qids(query_from_dict(record) for record in records)


def fill_qids(qids: Sequence[str]) -> List[str]:
    """The qid rule, over qid strings (``""`` = blank).

    Explicit qids must be unique; blank ones are filled positionally as
    ``q0, q1, ...``, skipping any name an explicit qid already took.
    The executor and the cluster router both name a batch's queries
    through this one function, so a scattered batch merges its results
    under the ids one process would give them.
    """
    taken: Dict[str, int] = {}
    for i, qid in enumerate(qids):
        if not qid:
            continue
        if qid in taken:
            raise InputMismatchError(
                f"duplicate qid {qid!r} (queries {taken[qid]} and {i})"
            )
        taken[qid] = i
    filled: List[str] = []
    auto = 0
    for i, qid in enumerate(qids):
        if not qid:
            while f"q{auto}" in taken:
                auto += 1
            qid = f"q{auto}"
            taken[qid] = i
        filled.append(qid)
    return filled


def assign_qids(queries: Iterable[BatchQuery]) -> List[BatchQuery]:
    """Give every query a unique qid by :func:`fill_qids`."""
    items = list(queries)
    qids = fill_qids([query.qid for query in items])
    return [
        query if query.qid == qid else query.with_qid(qid)
        for query, qid in zip(items, qids)
    ]
