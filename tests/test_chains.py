import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_chains import (
    INTEGERS,
    RATIONALS,
    LatticeSpace,
    UfChain,
    boundary,
    chain_stats,
    frechet_seminorm,
    push_tuplewise,
    uf_norm,
)
from coarse_chains.chains import tuple_distance, tuple_length

from conftest import ALL_GROUPS, random_chain

Z1 = LatticeSpace(1)
Z2 = LatticeSpace(2)


def test_boundary_edge():
    c = UfChain(1, Z1, INTEGERS, {((0,), (1,)): 1})
    assert boundary(c).terms == {((1,),): 1, ((0,),): -1}


def test_boundary_combines_and_cancels():
    c = UfChain(1, Z1, INTEGERS, {((0,), (3,)): 2, ((3,), (5,)): 1})
    assert boundary(c).terms == {((0,),): -2, ((3,),): 1, ((5,),): 1}


def test_boundary_squared_triangle():
    c = UfChain(2, Z2, INTEGERS, {((0, 0), (1, 0), (0, 1)): 1})
    assert boundary(boundary(c)).is_zero()


def test_boundary_degree_zero_rejected():
    with pytest.raises(ValueError):
        boundary(UfChain(0, Z1, INTEGERS, {((0,),): 1}))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_boundary_squared_zero_random(group, degree):
    rng = random.Random(degree * 100 + len(group.name))
    for _ in range(50):
        space = LatticeSpace(rng.choice([1, 2, 3]))
        c = random_chain(rng, space, degree, group)
        if degree >= 2:
            assert boundary(boundary(c)).is_zero()


def test_uf_norm_examples():
    c = UfChain(1, Z1, INTEGERS, {((0,), (5,)): 3})
    assert uf_norm(c, 2) == 75
    c2 = UfChain(1, Z2, INTEGERS, {((0, 0), (2, 1)): 1})
    assert uf_norm(c2, 3) == 8
    # weight 0 recovers the sup-norm of coefficients
    c3 = UfChain(1, Z1, INTEGERS, {((0,), (5,)): 3, ((0,), (1,)): -7})
    assert uf_norm(c3, 0) == 7


def test_uf_norm_degree_zero_convention():
    c = UfChain(0, Z1, INTEGERS, {((7,),): 5})
    assert uf_norm(c, 0) == 5  # 0^0 = 1
    assert uf_norm(c, 1) == 0
    assert uf_norm(c, 3) == 0


def test_frechet_seminorm_examples():
    c = UfChain(1, Z1, INTEGERS, {((0,), (2,)): 1})
    assert frechet_seminorm(c, 1) == 2  # boundary points have length 0
    assert frechet_seminorm(c, 0) == 2  # 1 + sup-norm of the two boundary points
    z = UfChain(0, Z1, INTEGERS, {((7,),): 5})
    assert frechet_seminorm(z, 1) == 0
    assert frechet_seminorm(z, 2) == 0


def test_uf_norm_homogeneous_over_Z(rng):
    for _ in range(200):
        c = random_chain(rng, Z2, rng.randint(0, 3), INTEGERS)
        m = rng.randint(-5, 5)
        for n in range(3):
            assert uf_norm(c.scale(m), n) == abs(m) * uf_norm(c, n)


def test_chain_stats_empty():
    stats = chain_stats(UfChain.zero(1, Z1, INTEGERS), [0, 1, 2])
    assert stats.propagation == 0
    assert stats.sup_norm == 0
    assert stats.multiplicity == {0: 0, 1: 0, 2: 0}


def test_chain_stats_propagation():
    c = UfChain(1, Z1, INTEGERS, {((0,), (4,)): 1})
    assert chain_stats(c).propagation == 4


def test_tuple_length_matches_pairwise_definition(rng):
    # The largest per-axis spread against the definition: the largest
    # sup-distance over all vertex pairs, read coordinate by coordinate.
    singletons = flat = 0
    for _ in range(600):
        dim = rng.randint(0, 4)
        tup = tuple(tuple(rng.randint(-6, 6) for _ in range(dim))
                    for _ in range(rng.randint(1, 6)))
        pairwise = max(max((abs(a - b) for a, b in zip(p, q)), default=0)
                       for p in tup for q in tup)
        assert tuple_length(tup) == pairwise
        singletons += len(tup) == 1
        flat += dim == 0
    assert singletons >= 50 and flat >= 50


def test_chain_stats_multiplicity_matches_recount(rng):
    # Independent O(m^2) recount of the multiplicity statistic.
    space = Z2
    c = random_chain(rng, space, 1, INTEGERS, n_terms=50, box=5, spread=3)
    stats = chain_stats(c, [2])
    tuples = list(c.terms)
    best = 0
    for center in tuples:
        count = 0
        for other in tuples:
            if tuple_distance(space, center, other) <= 2:
                count += 1
        best = max(best, count)
    assert stats.multiplicity[2] == best


def test_push_tuplewise_examples():
    c = UfChain(1, Z1, INTEGERS, {((0,), (3,)): 1})
    assert push_tuplewise(c, lambda p: p) == c
    const = push_tuplewise(c, lambda p: (9,))
    assert const.terms == {((9,), (9,)): 1}  # degenerate tuple retained
    c2 = UfChain(1, Z2, INTEGERS, {((0, 1), (4, 7)): 2})
    proj = push_tuplewise(c2, lambda p: (p[0],), LatticeSpace(1))
    assert proj.terms == {((0,), (4,)): 2}


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_push_commutes_with_boundary(group):
    rng = random.Random(11)
    maps = [
        lambda p: (p[0],),
        lambda p: (p[0] + p[1],),
        lambda p: (p[0] % 3,),
        lambda p: (0,),
    ]
    for _ in range(100):
        c = random_chain(rng, Z2, rng.randint(1, 4), group)
        f = rng.choice(maps)
        target = LatticeSpace(1)
        lhs = boundary(push_tuplewise(c, f, target))
        rhs = push_tuplewise(boundary(c), f, target)
        assert lhs == rhs


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_chain_addition_is_groupwise(a, b, c, d):
    x = UfChain(1, Z1, INTEGERS, {((0,), (1,)): a, ((1,), (2,)): b})
    y = UfChain(1, Z1, INTEGERS, {((0,), (1,)): c, ((1,), (2,)): d})
    s = x + y
    assert s.terms.get(((0,), (1,)), 0) == a + c
    assert s.terms.get(((1,), (2,)), 0) == b + d
    assert (x - x).is_zero()


def test_zero_coefficients_dropped():
    c = UfChain(1, Z1, INTEGERS, [(((0,), (1,)), 1), (((0,), (1,)), -1)])
    assert c.is_zero()
    assert c.terms == {}


def test_json_round_trip_bit_exact(rng):
    for group in ALL_GROUPS:
        c = random_chain(rng, Z2, 2, group, n_terms=6)
        data = c.to_json()
        again = UfChain.from_json(data)
        assert again == c
        # serialized form is canonical: dumping twice is byte-identical
        assert json.dumps(data, sort_keys=True) == json.dumps(again.to_json(), sort_keys=True)
        tuples = [item["tuple"] for item in data["terms"]]
        assert tuples == sorted(tuples)
    # Pinned literal: the Q codec writes "num/den" and orders terms by tuple.
    c = UfChain(1, Z2, RATIONALS, {((0, 0), (1, -1)): Fraction(1, 2), ((2, 0), (2, 1)): -3,
                                   ((0, 0), (0, 0)): Fraction(-4, 6)})
    literal = (
        '{"degree": 1, "group": "Q", "space": {"dim": 2, "kind": "lattice"}, "terms": ['
        '{"coeff": "-2/3", "tuple": [[0, 0], [0, 0]]}, '
        '{"coeff": "1/2", "tuple": [[0, 0], [1, -1]]}, '
        '{"coeff": "-3/1", "tuple": [[2, 0], [2, 1]]}]}')
    assert json.dumps(c.to_json(), sort_keys=True) == literal
    assert UfChain.from_json(json.loads(literal)) == c


def test_degenerate_tuples_are_legal():
    c = UfChain(1, Z1, INTEGERS, {((2,), (2,)): 3})
    assert c.propagation() == 0
    b = boundary(c)
    assert b.terms == {((2,),): 0} or b.is_zero()
    assert b.is_zero()  # (x) - (x) cancels
