"""The simplex check for subgraph embeddings (Section III-A).

A subgraph embedding is ``x`` in the simplex ``Delta_n`` (nonnegative,
sums to 1); ``x_u`` is the participation of vertex ``u`` and the support
set is ``Sx = {u | x_u > 0}``.  The solvers carry ``x`` as a plain
sparse ``dict`` vertex -> weight; :func:`validate_simplex` checks that
such a dict lies on the simplex, up to :data:`SIMPLEX_TOL`.
"""

from __future__ import annotations

from typing import Mapping

from repro.exceptions import EmbeddingError
from repro.graph.graph import Vertex

#: Tolerance for simplex validation (sum-to-one and nonnegativity).
SIMPLEX_TOL = 1e-8


def validate_simplex(values: Mapping[Vertex, float], tol: float = SIMPLEX_TOL) -> None:
    """Raise :class:`EmbeddingError` unless *values* lies on the simplex."""
    total = 0.0
    for vertex, value in values.items():
        if value < -tol:
            raise EmbeddingError(f"negative weight {value} on {vertex!r}")
        total += max(value, 0.0)
    if abs(total - 1.0) > tol:
        raise EmbeddingError(f"weights sum to {total!r}, expected 1")
