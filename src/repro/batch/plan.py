"""The batch work DAG: deduplicated preprocessing feeding query fan-out.

A batch of queries is two-layered::

    source ──► prep node ──────────► query ... query      (per prep key)
               (load + difference      │
                construction, once)    ▼
                               fingerprint ──► cache key / worker table

Several queries typically share preprocessing — an alpha/k sweep over
one dataset, the same file pair mined under both measures.  The plan
groups queries by **prep key** (source identity + difference
parameters), so each distinct difference graph is loaded, assembled and
fingerprinted exactly once, however many queries consume it.  The
fingerprint then addresses everything downstream: the result cache and
the worker-side shared graph/CSR tables.

Prep execution happens in the *submitting* process (it is pure-Python
graph assembly — parallelising it across workers would just pickle the
raw inputs around); the solves are what the executor fans out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.batch.queries import BatchQuery
from repro.core.difference import assemble_difference, cap_weights
from repro.engine.prepared import PreparedGraph
from repro.exceptions import InputMismatchError
from repro.graph.graph import Graph
from repro.graph.io import read_pair
from repro.graph.sparse import graph_fingerprint

PrepKey = Tuple[Hashable, ...]


def prep_key(query: BatchQuery) -> PrepKey:
    """The dedup identity of a query's preprocessing.

    Two queries share a prep node iff they share this key: the same
    source *identity* (paths / dataset name / in-memory object) under
    the same difference transform.  Inline objects key by ``id()`` —
    within one submission, the same object means the same input.
    """
    source = query.source
    transform = (query.alpha, query.flip, query.discrete, query.cap)
    if source.kind == "files":
        return ("files", source.g1, source.g2) + transform
    if source.kind == "registry":
        return ("registry", source.dataset, source.scale) + transform
    if source.graph is not None:
        return ("inline-gd", id(source.graph)) + transform
    assert source.pair is not None
    # Key on the member graphs, not the pair tuple: every from_pair()
    # call builds a fresh tuple, but the same two graph objects name
    # the same input.
    return (
        "inline-pair", id(source.pair[0]), id(source.pair[1])
    ) + transform


@dataclass
class PrepOutput:
    """One executed prep node: the shared input plus its identity.

    A failed prep (missing file, unknown dataset name, bad transform)
    carries *error* instead of a payload — the executor fails only the
    queries that depend on it, never the whole submission.
    """

    key: PrepKey
    payload: Optional[Union[Graph, PreparedGraph]]
    fingerprint: str
    seconds: float
    qids: List[str] = field(default_factory=list)
    error: Optional[str] = None


class BatchPlan:
    """The two-layer DAG for one submission, ready to execute.

    ``prep_of`` maps each query (by position) to its prep key;
    ``groups`` lists the distinct prep nodes in first-use order.
    """

    def __init__(self, queries: Sequence[BatchQuery]) -> None:
        self.queries = list(queries)
        self.prep_of: List[PrepKey] = []
        self.groups: Dict[PrepKey, List[int]] = {}
        for position, query in enumerate(self.queries):
            key = prep_key(query)
            self.prep_of.append(key)
            self.groups.setdefault(key, []).append(position)

    @property
    def shared_preps(self) -> int:
        """How many per-query preps the dedup avoided."""
        return len(self.queries) - len(self.groups)

    def describe(self) -> str:
        """Human-readable DAG (the ``repro batch --plan`` output)."""
        lines = [
            f"batch plan: {len(self.queries)} queries, "
            f"{len(self.groups)} shared prep nodes "
            f"({self.shared_preps} prep builds deduplicated)"
        ]
        for index, (key, positions) in enumerate(self.groups.items()):
            qids = " ".join(
                self.queries[p].qid or f"#{p}" for p in positions
            )
            label = " ".join(str(part) for part in key)
            lines.append(f"  prep[{index}] {label}")
            lines.append(f"    -> {qids}")
        return "\n".join(lines)

    def run_preps(self) -> Dict[PrepKey, PrepOutput]:
        """Execute every prep node once; return outputs by key.

        File pairs are read once per distinct ``(g1, g2)`` even when
        several transforms (alpha sweeps) reuse them.
        """
        pair_cache: Dict[Tuple[str, str], Tuple[Graph, Graph]] = {}
        outputs: Dict[PrepKey, PrepOutput] = {}
        for key, positions in self.groups.items():
            query = self.queries[positions[0]]
            qids = [self.queries[p].qid for p in positions]
            start = time.perf_counter()
            try:
                payload = _build_payload(query, pair_cache)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                outputs[key] = PrepOutput(
                    key=key,
                    payload=None,
                    fingerprint="",
                    seconds=time.perf_counter() - start,
                    qids=qids,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            if isinstance(payload, PreparedGraph):
                # Already fingerprinted at preparation time (and the
                # graph may live in a shared-memory segment with no
                # dict form materialised) — never re-derive.
                fingerprint = payload.fingerprint
            else:
                fingerprint = graph_fingerprint(payload)
            outputs[key] = PrepOutput(
                key=key,
                payload=payload,
                fingerprint=fingerprint,
                seconds=time.perf_counter() - start,
                qids=qids,
            )
        return outputs


def _build_payload(
    query: BatchQuery,
    pair_cache: Dict[Tuple[str, str], Tuple[Graph, Graph]],
) -> Union[Graph, PreparedGraph]:
    source = query.source
    if source.kind == "inline" and source.graph is not None:
        if (query.alpha, query.flip, query.discrete, query.cap) != (
            1.0, False, False, None,
        ):
            # Raised here (not at plan time) so it fails only the
            # queries that depend on this prep, never the submission.
            raise InputMismatchError(
                "an inline difference graph is already assembled; "
                "alpha/flip/discrete/cap would be applied twice"
            )
        return source.graph
    if source.kind == "inline":
        assert source.pair is not None
        g1, g2 = source.pair
    elif source.kind == "files":
        pair_id = (source.g1, source.g2)
        if pair_id not in pair_cache:
            pair_cache[pair_id] = read_pair(source.g1, source.g2)
        g1, g2 = pair_cache[pair_id]
    else:  # registry
        from repro.datasets.registry import build_named

        if query.discrete or query.alpha != 1.0:
            raise InputMismatchError(
                "registry entries are prebuilt difference graphs; "
                "alpha/discrete are fixed by the dataset name "
                f"({source.dataset!r})"
            )
        gd = build_named(source.dataset, scale=source.scale).graph
        if query.flip:
            gd = gd.negated()
        if query.cap is not None:
            gd = cap_weights(gd, query.cap)
        return gd
    return assemble_difference(
        g1,
        g2,
        alpha=query.alpha,
        flipped=query.flip,
        discrete=query.discrete,
        cap=query.cap,
    )
