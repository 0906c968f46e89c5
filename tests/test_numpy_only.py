"""Pair preparation and the python backend need NumPy, not SciPy.

A child interpreter hides SciPy (``sys.modules["scipy"] = None`` before
``repro`` is imported), prepares pairs under every transform with
:meth:`PreparedGraph.from_pair`, fingerprints them and solves DCSAD and
DCSGA on the python backend.  Its digests and canonical envelopes must
equal this process's, which has SciPy when it is installed.  CI also
runs this file in a job that installs NumPy alone.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

SCENARIO = r"""
import json
import sys

if HIDE_SCIPY:
    sys.modules["scipy"] = None

from repro.engine.envelope import SolveRequest, solve
from repro.engine.prepared import PreparedGraph
from repro.graph.generators import random_signed_graph
from repro.graph.sparse import scipy_available

TRANSFORMS = [
    {},
    {"alpha": 1.6},
    {"flipped": True},
    {"discrete": True},
    {"cap": 1.5, "alpha": 0.8, "flipped": True},
]
names = {i: f"v{i:02d}" for i in range(40)}
g1 = random_signed_graph(40, 0.25, seed=3).positive_part().relabeled(names)
g2 = random_signed_graph(36, 0.3, seed=4).positive_part().relabeled(names)
runs = []
for transform in TRANSFORMS:
    prepared = PreparedGraph.from_pair(g1, g2, **transform)
    envelopes = [
        solve(SolveRequest(measure, backend="python"), prepared).canonical_json()
        for measure in ("average_degree", "affinity")
    ]
    runs.append([prepared.fingerprint, envelopes])
print(json.dumps({"scipy": scipy_available(), "runs": runs}))
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(hide_scipy: bool, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", f"HIDE_SCIPY = {hide_scipy}\n{SCENARIO}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_prepares_and_solves_without_scipy_as_with_it():
    # Both children share one hash seed: python-backend answers still
    # depend on it, and this comparison is about SciPy alone.
    seed = os.environ.get("PYTHONHASHSEED") or str(random.randrange(2**32))
    hidden = _run(hide_scipy=True, hash_seed=seed)
    assert hidden["scipy"] is False
    reference = _run(hide_scipy=False, hash_seed=seed)
    assert hidden["runs"] == reference["runs"], f"PYTHONHASHSEED={seed}"
    fingerprints = [fingerprint for fingerprint, _ in hidden["runs"]]
    assert len(set(fingerprints)) == len(fingerprints)
