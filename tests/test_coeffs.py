import random
from fractions import Fraction

import pytest

from coarse_chains import INTEGERS, INTEGERS_MOD_2, RATIONALS, group_by_name
from coarse_chains.coeffs import GroupMismatch

from conftest import ALL_GROUPS, random_coeff


def test_add_examples():
    assert INTEGERS.add(2, 3) == 5
    assert INTEGERS_MOD_2.add(1, 1) == 0
    assert RATIONALS.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_norm_examples():
    assert INTEGERS.norm(-3) == 3
    assert INTEGERS_MOD_2.norm(1) == 1
    assert RATIONALS.norm(Fraction(-5, 2)) == Fraction(5, 2)


def test_group_mismatch_raises():
    with pytest.raises(GroupMismatch):
        INTEGERS.coerce(Fraction(1, 2))
    with pytest.raises(GroupMismatch):
        INTEGERS_MOD_2.coerce("1")


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_norm_triangle_inequality_random(group):
    rng = random.Random(5)
    for _ in range(10_000):
        a = random_coeff(rng, group)
        b = random_coeff(rng, group)
        s = group.add(a, b)
        assert group.norm(s) <= group.norm(a) + group.norm(b)
        assert group.norm(group.neg(a)) == group.norm(a)
    assert group.norm(group.zero) == 0


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_abelian_group_axioms_random(group):
    rng = random.Random(6)
    for _ in range(2000):
        a, b, c = (random_coeff(rng, group) for _ in range(3))
        assert group.add(a, b) == group.add(b, a)
        assert group.add(group.add(a, b), c) == group.add(a, group.add(b, c))
        assert group.add(a, group.neg(a)) == group.zero
        assert group.add(a, group.zero) == a


def test_scale_is_repeated_addition():
    rng = random.Random(7)
    for group in ALL_GROUPS:
        for _ in range(200):
            a = random_coeff(rng, group)
            m = rng.randint(-4, 4)
            total = group.zero
            for _ in range(abs(m)):
                total = group.add(total, a)
            if m < 0:
                total = group.neg(total)
            assert group.scale(m, a) == total


def test_json_round_trip():
    assert INTEGERS.from_json(INTEGERS.to_json(-7)) == -7
    assert INTEGERS_MOD_2.from_json(INTEGERS_MOD_2.to_json(1)) == 1
    x = Fraction(-5, 2)
    assert RATIONALS.from_json(RATIONALS.to_json(x)) == x
    assert RATIONALS.to_json(Fraction(-5, 2)) == "-5/2"
    assert RATIONALS.from_json("3") == Fraction(3)


def test_group_by_name():
    assert group_by_name("Z") is INTEGERS
    assert group_by_name("Z/2") is INTEGERS_MOD_2
    assert group_by_name("Q") is RATIONALS
    with pytest.raises(ValueError):
        group_by_name("R")


def test_scale_by_a_unit_keeps_the_element_type():
    half = Fraction(1, 2)
    assert RATIONALS.scale(1, half) is half
    assert type(RATIONALS.scale(-1, half)) is Fraction and RATIONALS.scale(-1, half) == -half
    assert type(RATIONALS.scale(3, half)) is Fraction and RATIONALS.scale(3, half) == Fraction(3, 2)
    assert RATIONALS.scale(-1, RATIONALS.zero) == 0
    assert [INTEGERS.scale(m, 3) for m in (1, -1, 2, 0)] == [3, -3, 6, 0]
    # mod 2 a unit multiple is the element itself, never -1
    assert [INTEGERS_MOD_2.scale(m, 1) for m in (1, -1, 2, -3)] == [1, 1, 0, 1]
