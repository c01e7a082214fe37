"""Shared random generators for the test suite.

Everything is seeded explicitly; tests freeze expected values computed by
independent oracles rather than trusting the code under test.
"""

from __future__ import annotations

import random

import pytest

from coarse_chains import INTEGERS, INTEGERS_MOD_2, RATIONALS
from coarse_chains.sampling import random_chain, random_coeff  # noqa: F401 - shared with tests

ALL_GROUPS = (INTEGERS, INTEGERS_MOD_2, RATIONALS)

PAIR_SET = ((2, 1), (3, 1), (3, 2), (4, 2))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
