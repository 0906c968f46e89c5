"""Batch-query service layer — many DCS queries, one shared machinery.

The paper's workloads are sweeps: Table VII times every dataset, the
use cases scan alphas and horizons.  This package turns such sweeps
from "a Python loop around :func:`~repro.core.dcsad.dcs_greedy`" into a
served batch::

    from repro.batch import BatchExecutor, BatchQuery, GraphSource

    queries = [
        BatchQuery(kind="dcsad", source=GraphSource.from_pair(g1, g2)),
        BatchQuery(kind="dcsga", source=GraphSource.from_pair(g1, g2),
                   backend="sparse", k=3),
    ]
    results = BatchExecutor(workers=4).run(queries)

Submission flow: :class:`~repro.batch.plan.BatchPlan` groups the
queries into a work DAG whose prep nodes (difference-graph assembly,
fingerprinting) are deduplicated by content;
:class:`~repro.batch.executor.BatchExecutor` resolves repeats from the
content-addressed :class:`~repro.batch.cache.ResultCache` and fans the
remaining solves across worker processes that share one frozen
graph/CSR table per fingerprint; every query comes back as a
:class:`~repro.batch.executor.BatchResult` — answer, error or timeout —
in input order.  ``repro batch`` is the CLI face of the same layer.
"""

from repro.batch.cache import (
    ResultCache,
    cache_key,
    canonical_params,
    canonical_text,
)
from repro.batch.executor import (
    BatchExecutor,
    BatchResult,
    BatchStats,
    execute_payload,
    run_guarded,
)
from repro.batch.plan import BatchPlan, PrepOutput, prep_key
from repro.batch.queries import (
    BatchQuery,
    GraphSource,
    query_from_dict,
    query_to_dict,
    read_queries,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "BatchPlan",
    "BatchQuery",
    "GraphSource",
    "PrepOutput",
    "ResultCache",
    "cache_key",
    "canonical_params",
    "canonical_text",
    "execute_payload",
    "prep_key",
    "run_guarded",
    "query_from_dict",
    "query_to_dict",
    "read_queries",
]
