"""Tests for the simplex check on sparse embeddings."""

from __future__ import annotations

import pytest

from repro.core.embedding import validate_simplex
from repro.exceptions import EmbeddingError


class TestConstruction:
    def test_validate_simplex_helper(self):
        validate_simplex({"a": 0.5, "b": 0.5})
        with pytest.raises(EmbeddingError):
            validate_simplex({"a": 0.9})
        with pytest.raises(EmbeddingError):
            validate_simplex({"a": 1.5, "b": -0.5})
