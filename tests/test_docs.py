"""The guides name only files that exist.

Every ``*.py`` path quoted in an inline code span of the README or the
architecture guide must resolve to a file in the repository.  A quoted
path may be written from the repository root (``perfbench/run.py``),
from ``src/`` (``repro/stream/engine.py``), from the package
(``stream/engine.py``), or by bare name for a bench or an example
(``bench_streaming.py``, ``quickstart.py``).  CHANGES.md and ROADMAP.md
are history and name deleted files on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/ARCHITECTURE.md")
BASES = ("", "src", "src/repro", "benchmarks", "examples")

#: fenced blocks hold diagrams that name files relative to a package
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SPAN = re.compile(r"`([^`\n]+)`")
PY_PATH = re.compile(r"[\w./-]*\w\.py\b")


def quoted_python_paths(text: str) -> set:
    prose = FENCE.sub("", text)
    return {
        path for span in SPAN.findall(prose) for path in PY_PATH.findall(span)
    }


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_python_paths_exist(doc):
    paths = quoted_python_paths((ROOT / doc).read_text(encoding="utf-8"))
    assert paths
    missing = sorted(
        path
        for path in paths
        if not any((ROOT / base / path).is_file() for base in BASES)
    )
    assert missing == []


def test_paths_are_read_from_inline_spans_only():
    text = "See `stream/engine.py` and `core/gone.py`.\n```\nplan.py\n```\n"
    assert quoted_python_paths(text) == {"stream/engine.py", "core/gone.py"}
