"""Shared random generators and guards for the test suite.

Everything is seeded explicitly; tests freeze expected values computed by
independent oracles rather than trusting the code under test.
"""

from __future__ import annotations

import random

import pytest

from coarse_chains.equivariant import TranslationAction

# Shared with the tests; the pairs and groups are the verify battery's.
from coarse_chains.sampling import random_chain, random_coeff  # noqa: F401
from coarse_chains.verify import GROUPS as ALL_GROUPS, PAIR_SET  # noqa: F401


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail at once if a quotient build starts enumerating tuples."""
    def refuse(self):
        raise AssertionError("the quotient build started enumerating")

    monkeypatch.setattr(TranslationAction, "fundamental_points", refuse)
