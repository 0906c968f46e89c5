"""Every package's ``__all__`` names attributes that exist, once each.

A name left in ``__all__`` after its import is deleted breaks
``from repro.<package> import *`` while every other test still passes.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    repeated = sorted({item for item in exported if exported.count(item) > 1})
    assert repeated == []
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
