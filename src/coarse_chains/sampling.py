"""Seeded random chains, shared by the verify battery and the test suite.

Every draw comes from the caller's random.Random, so a seed fixes the
chains.  general_position_chain is the one rejection loop, and it is
bounded: a draw that stays zero or degenerate for GENERAL_POSITION_ATTEMPTS
attempts raises instead of looping on.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chains import UfChain
from .coeffs import INTEGERS_MOD_2, RATIONALS, CoefficientGroup
from .geometry import DegeneratePosition, FlatPair
from .spaces import LatticeSpace
from .wrongway import WrongWayContext, cap_thom, sign_identity_residual

# Attempts per requested general-position draw before giving up.
GENERAL_POSITION_ATTEMPTS = 100


def random_coeff(rng: random.Random, group: CoefficientGroup):
    if group is RATIONALS:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    if group is INTEGERS_MOD_2:
        return 1
    return rng.choice([-3, -2, -1, 1, 2, 3])


def random_chain(rng: random.Random, space: LatticeSpace, degree: int,
                 group: CoefficientGroup, n_terms: int = 4, box: int = 3,
                 spread: int = 2) -> UfChain:
    """n_terms tuples, each within `spread` of a base point in [-box, box]^n."""
    terms: list[tuple[tuple, object]] = []
    for _ in range(n_terms):
        base = tuple(rng.randint(-box, box) for _ in range(space.dim))
        tup = tuple(
            tuple(b + rng.randint(-spread, spread) for b in base)
            for _ in range(degree + 1)
        )
        terms.append((tup, random_coeff(rng, group)))
    return UfChain(degree, space, group, terms)


def general_position_chain(rng: random.Random, pair: FlatPair, degree: int,
                           ctx: WrongWayContext, n_terms: int = 4, box: int = 3,
                           spread: int = 2) -> tuple[UfChain, UfChain, int]:
    """Rejection-sample a nonzero chain on which the wrong-way identities evaluate.

    Degree q + 1 and up must pass the sign identity, degree q the cap.
    Returns the chain with that evaluation (its sign-identity residual, or
    at degree q its cap with the Thom class) and the number of draws made.
    """
    space = LatticeSpace(pair.ambient_dim)
    evaluate = sign_identity_residual if degree >= pair.codim + 1 else cap_thom
    for attempt in range(1, GENERAL_POSITION_ATTEMPTS + 1):
        c = random_chain(rng, space, degree, ctx.group, n_terms, box, spread)
        if c.is_zero():
            continue
        try:
            return c, evaluate(c, ctx), attempt
        except DegeneratePosition:
            continue
    raise ValueError(
        f"no nonzero general-position degree-{degree} chain for the pair "
        f"(n={pair.ambient_dim}, q={pair.codim}) in {GENERAL_POSITION_ATTEMPTS} attempts")
