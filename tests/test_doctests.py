"""The docstring examples of the package front page and the engine modules.

Each module's examples run through :func:`doctest.testmod`, so a docstring
that drifts from the code fails tier-1 instead of misleading a reader.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.simulation.batch as batch
import repro.simulation.scenarios as scenarios
import repro.simulation.streaming as streaming

MODULES = [repro, batch, scenarios, streaming]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_docstring_examples_pass(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0, f"{module.__name__} has no docstring examples"
    assert failed == 0, f"{failed} of {attempted} examples failed"
