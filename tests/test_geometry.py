import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_chains import (
    INTEGERS_MOD_2,
    DegeneratePosition,
    FlatPair,
    cocycle_check,
    fill,
    orientation_sign,
    thom_crossing,
    thom_evaluate,
)

from conftest import PAIR_SET
from oracles import barycentric_point, crossing_number_oracle, diameter, thom_oracle


# -- fill ------------------------------------------------------------------

def test_fill_examples():
    seg = fill([(0,), (1,)])
    assert seg.vertices == ((0,), (1,))
    assert seg.dim == 1
    tri = fill([(0, 0), (1, 0), (0, 1)])
    assert tri.vertices == ((0, 0), (1, 0), (0, 1))
    assert diameter(tri) == 1


def test_fill_boundary_compatibility_random(rng):
    for _ in range(300):
        dim = rng.randint(1, 4)
        degree = rng.randint(1, 4)
        tup = tuple(tuple(rng.randint(-5, 5) for _ in range(dim))
                    for _ in range(degree + 1))
        filled = fill(tup)
        got = [(sign, f.vertices) for sign, f in filled.faces()]
        want = [((-1) ** j, fill(tup[:j] + tup[j + 1:]).vertices)
                for j in range(degree + 1)]
        assert got == want


def _barycentric_weight_grid(k: int, denominator: int):
    for combo in itertools.product(range(denominator + 1), repeat=k):
        if sum(combo) == denominator:
            yield tuple(Fraction(c, denominator) for c in combo)


def test_fill_diameter_equals_tuple_length(rng):
    # Dense barycentric sampling: the sampled diameter must equal the
    # vertex-set diameter and every sample stays in the bounding box.
    for _ in range(100):
        dim = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        tup = tuple(tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(degree + 1))
        simplex = fill(tup)
        samples = [barycentric_point(simplex, w)
                   for w in _barycentric_weight_grid(degree + 1, 3)]
        sampled_diameter = max(
            (max(abs(a - b) for a, b in zip(p, q))
             for i, p in enumerate(samples) for q in samples[i + 1:]),
            default=Fraction(0),
        )
        assert sampled_diameter == diameter(simplex)
        lo = [min(v[i] for v in tup) for i in range(dim)]
        hi = [max(v[i] for v in tup) for i in range(dim)]
        for p in samples:
            assert all(a <= c <= b for a, c, b in zip(lo, p, hi))


# -- orientation -----------------------------------------------------------

def test_orientation_sign_examples():
    assert orientation_sign([(1, 0), (0, 1)]) == 1
    assert orientation_sign([(0, 1), (1, 0)]) == -1
    assert orientation_sign([(1, 1), (2, 2)]) == 0
    assert orientation_sign([(Fraction(1, 2),)]) == 1


def test_orientation_sign_antisymmetry(rng):
    for _ in range(200):
        q = rng.randint(2, 4)
        vectors = [tuple(rng.randint(-5, 5) for _ in range(q)) for _ in range(q)]
        base = orientation_sign(vectors)
        swapped = [vectors[1], vectors[0]] + vectors[2:]
        assert orientation_sign(swapped) == -base


# -- Thom evaluation -------------------------------------------------------

def test_thom_examples_with_oracles():
    pair = FlatPair(2, 1)
    seg = fill([(0, -1), (0, 1)])
    assert thom_evaluate(seg, pair) == 1
    assert thom_oracle(seg, pair) == 1

    offside = fill([(1, 2), (3, 5)])
    assert thom_evaluate(offside, pair) == 0
    assert thom_oracle(offside, pair) == 0

    tri = fill([(0, 1, 0), (0, -1, 1), (0, -1, -1)])
    pair32 = FlatPair(3, 2)
    assert thom_evaluate(tri, pair32) == 1
    assert thom_oracle(tri, pair32) == 1


def test_thom_degenerate_examples():
    pair = FlatPair(2, 1)
    with pytest.raises(DegeneratePosition):
        thom_evaluate(fill([(0, 0), (1, 0)]), pair)  # lies inside the flat
    with pytest.raises(DegeneratePosition):
        thom_evaluate(fill([(0, 0), (1, 1)]), pair)  # endpoint on the flat
    with pytest.raises(DegeneratePosition):
        # origin on the boundary of the projected triangle
        thom_evaluate(fill([(5, 0, -1), (5, 0, 1), (5, 3, 0)]), FlatPair(3, 2))


def test_thom_matches_oracle_randomly(rng):
    agree = 0
    for _ in range(2000):
        n, q = rng.choice([(2, 1), (3, 1), (3, 2), (4, 2)])
        pair = FlatPair(n, q, rng.choice([1, -1]))
        verts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(q + 1)]
        simplex = fill(verts)
        try:
            got = thom_crossing(simplex, pair)
        except DegeneratePosition:
            continue
        assert got == thom_oracle(simplex, pair)
        agree += 1
    assert agree > 800


def test_thom_translation_invariance_along_flat(rng):
    for _ in range(300):
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q)
        verts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(q + 1)]
        shift = tuple(rng.randint(-5, 5) for _ in range(n - q)) + (0,) * q
        moved = [tuple(a + b for a, b in zip(v, shift)) for v in verts]
        try:
            base = thom_crossing(fill(verts), pair)
        except DegeneratePosition:
            with pytest.raises(DegeneratePosition):
                thom_crossing(fill(moved), pair)
            continue
        assert thom_crossing(fill(moved), pair) == base


def test_thom_orientation_flip(rng):
    for _ in range(300):
        n, q = rng.choice(list(PAIR_SET))
        verts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(q + 1)]
        try:
            plus = thom_crossing(fill(verts), FlatPair(n, q, 1))
        except DegeneratePosition:
            continue
        minus = thom_crossing(fill(verts), FlatPair(n, q, -1))
        assert minus == -plus
        # mod 2 the orientation is invisible
        assert (
            thom_evaluate(fill(verts), FlatPair(n, q, 1), INTEGERS_MOD_2)
            == thom_evaluate(fill(verts), FlatPair(n, q, -1), INTEGERS_MOD_2)
        )


def test_thom_support_locality(rng):
    # A nonzero crossing forces every vertex within the tuple spread of the flat.
    for _ in range(500):
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q)
        verts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(q + 1)]
        simplex = fill(verts)
        try:
            value = thom_crossing(simplex, pair)
        except DegeneratePosition:
            continue
        if value != 0:
            spread = diameter(simplex)
            assert all(pair.flat_distance(v) <= spread for v in verts)


def test_thom_zero_when_one_sided(rng):
    for _ in range(300):
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q)
        coord = rng.randrange(q)
        verts = [
            tuple(rng.randint(-3, 3) for _ in range(n - q))
            + tuple(
                rng.randint(1, 4) if j == coord else rng.randint(-4, 4)
                for j in range(q)
            )
            for _ in range(q + 1)
        ]
        try:
            assert thom_crossing(fill(verts), pair) == 0
        except DegeneratePosition:
            continue


# -- cocycle ---------------------------------------------------------------

def test_cocycle_one_sided_is_zero():
    pair = FlatPair(2, 1)
    tri = fill([(0, 1), (2, 1), (1, 3)])
    assert cocycle_check(tri, pair) == 0


def test_cocycle_example_with_per_face_oracle():
    pair = FlatPair(2, 1)
    tri = fill([(0, -1), (2, -1), (1, 2)])
    assert cocycle_check(tri, pair) == 0
    total = sum(
        (-1) ** j * thom_oracle(face, pair)
        for j, (_, face) in enumerate(tri.faces())
    )
    assert total == 0


def test_cocycle_random_property(rng):
    done = 0
    for _ in range(4000):  # 400 general-position simplices took 546 draws
        if done == 400:
            break
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q)
        verts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(q + 2)]
        simplex = fill(verts)
        try:
            value = cocycle_check(simplex, pair)
        except DegeneratePosition:
            continue
        assert value == 0
        oracle = sum(
            (-1) ** j * thom_oracle(face, pair)
            for j, (_, face) in enumerate(simplex.faces())
        )
        assert oracle == 0
        done += 1
    assert done == 400, f"only {done} of 400 general-position simplices in 4000 draws"


# -- symbolic perturbation --------------------------------------------------

def test_perturbed_agrees_in_general_position(rng):
    agree = 0
    for _ in range(1500):
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q, rng.choice([1, -1]))
        verts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(q + 1)]
        simplex = fill(verts)
        try:
            plain = thom_crossing(simplex, pair)
        except DegeneratePosition:
            continue
        assert thom_crossing(simplex, pair, perturb=True) == plain
        agree += 1
    assert agree > 500


def test_perturbed_is_total_and_consistent(rng):
    # Never raises, and the perturbed cocycle still vanishes identically.
    for _ in range(800):
        n, q = rng.choice(list(PAIR_SET))
        pair = FlatPair(n, q)
        verts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(q + 2)]
        assert cocycle_check(fill(verts), pair, perturb=True) == 0
        for _, face in fill(verts).faces():
            thom_crossing(face, pair, perturb=True)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_perturbed_cocycle_vanishes_hypothesis(a, b, c, d, e, f, g, h, i):
    # Arbitrary triangles in Z^2 against the codimension-1 flat, including
    # fully degenerate ones: the perturbed alternating sum is always zero.
    simplex = fill([(a, b), (c, d), (e, f)])
    assert cocycle_check(simplex, FlatPair(2, 1), perturb=True) == 0
    tetra = fill([(a, b, c), (d, e, f), (g, h, i), (a + 1, e - 1, i)])
    assert cocycle_check(tetra, FlatPair(3, 2), perturb=True) == 0


def test_perturbed_segment_touching_flat():
    # Segment ending exactly on the flat: the perturbed flat sits at
    # +epsilon, so approaching from below does not cross but passing
    # through does.
    pair = FlatPair(2, 1)
    assert thom_crossing(fill([(0, -1), (0, 0)]), pair, perturb=True) == 0
    assert thom_crossing(fill([(0, 0), (0, 1)]), pair, perturb=True) == 1
    assert thom_crossing(fill([(0, 0), (0, -1)]), pair, perturb=True) == 0
    assert thom_crossing(fill([(0, 1), (0, 0)]), pair, perturb=True) == -1


@pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturbed"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_thom_matches_barycentric_oracle(q, perturb):
    # Small coordinates make ties, flat simplices and boundary hits common;
    # value and DegeneratePosition classification must both agree.
    rng = random.Random(700 + 10 * q + perturb)
    seen = {"degenerate": 0, "zero": 0, "nonzero": 0}
    for _ in range(400):
        n = q + rng.randint(0, 1)
        pair = FlatPair(n, q, rng.choice([1, -1]))
        verts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(q + 1)]
        want = crossing_number_oracle([pair.normal_part(v) for v in verts], perturb)
        try:
            got = thom_crossing(fill(verts), pair, perturb)
        except DegeneratePosition:
            got = None
        assert got == (None if want is None else pair.normal_orientation * want), verts
        seen["degenerate" if want is None else "nonzero" if want else "zero"] += 1
    assert seen["zero"] and seen["nonzero"], seen
    assert bool(seen["degenerate"]) != perturb, seen
