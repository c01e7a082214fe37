from fractions import Fraction

import pytest

from coarse_chains import (
    INTEGERS,
    INTEGERS_MOD_2,
    RATIONALS,
    DegeneratePosition,
    FlatPair,
    LatticeSpace,
    UfChain,
    Window,
    WrongWayContext,
    boundary,
    cap_thom,
    fill,
    flat_projection,
    sign_identity_residual,
    thom_crossing,
    uf_norm,
    wrong_way,
)
from coarse_chains import geometry
from coarse_chains.sampling import general_position_chain

from conftest import PAIR_SET
from oracles import thom_oracle

Z2 = LatticeSpace(2)
PAIR21 = FlatPair(2, 1)


def make_ctx(pair, group=INTEGERS, perturb=False, window=None):
    return WrongWayContext(pair, group, perturb, window)


# -- cap -------------------------------------------------------------------

def test_cap_example():
    c = UfChain(1, Z2, INTEGERS, {((0, -1), (0, 1)): 1})
    capped = cap_thom(c, make_ctx(PAIR21))
    assert capped.terms == {((0, 1),): 1}
    assert capped.space == Z2  # still ambient


def test_cap_one_sided_is_zero():
    c = UfChain(2, Z2, INTEGERS, {((0, 1), (1, 2), (0, 3)): 5})
    assert cap_thom(c, make_ctx(PAIR21)).is_zero()


def test_cap_degree_too_low():
    c = UfChain(0, Z2, INTEGERS, {((0, 1),): 1})
    with pytest.raises(ValueError):
        cap_thom(c, make_ctx(PAIR21))


def test_cap_total_coefficient_is_crossing_number(rng):
    # Degree q input: the output 0-chain's total coefficient equals the
    # summed signed crossing numbers, frozen by the sampling oracle.
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        for _ in range(30):
            c, capped, _ = general_position_chain(rng, pair, q, make_ctx(pair))
            expected = 0
            for tup, coeff in c.terms.items():
                expected += coeff * thom_oracle(fill(tup), pair)
            assert capped == cap_thom(c, make_ctx(pair))
            assert sum(capped.terms.values()) == expected


def test_cap_degenerate_attaches_tuple():
    c = UfChain(1, Z2, INTEGERS, {((0, 0), (1, 0)): 1})
    with pytest.raises(DegeneratePosition) as err:
        cap_thom(c, make_ctx(PAIR21))
    assert err.value.chain_tuple == ((0, 0), (1, 0))


def test_wrong_way_builds_a_simplex_only_for_the_degenerate_payload(rng, monkeypatch):
    cases = []
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        for group in (INTEGERS, INTEGERS_MOD_2, RATIONALS):
            for perturb in (False, True):
                ctx = make_ctx(pair, group, perturb)
                c, _, _ = general_position_chain(rng, pair, q + 1, ctx)
                cases.append((c, ctx, wrong_way(c, ctx)))
    assert any(not image.is_zero() for _, _, image in cases)

    def refuse(*args, **kwargs):
        raise AssertionError("an AffineSimplex was built off the degenerate path")

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "AffineSimplex", refuse)
        for c, ctx, image in cases:
            got = wrong_way(c, ctx)
            assert got == image
            values = list(got.terms.values())
            if ctx.group is RATIONALS:
                assert all(type(v) is Fraction for v in values)
            elif ctx.group is INTEGERS_MOD_2:
                assert values == [1] * len(values)

    for n, q in PAIR_SET:
        # The leading q-simplex lies in the flat: its hull holds the origin.
        tup = tuple((i,) * (n - q) + (0,) * q for i in range(q + 1)) + ((0,) * (n - q) + (1,) * q,)
        c = UfChain(q + 1, LatticeSpace(n), INTEGERS, {tup: 1})
        with pytest.raises(DegeneratePosition) as err:
            wrong_way(c, make_ctx(FlatPair(n, q)))
        assert str(err.value) == "projected simplex is degenerate with the origin in its affine hull"
        assert err.value.simplex == fill(tup[: q + 1])
        assert err.value.chain_tuple == tup


# -- projection ------------------------------------------------------------

def test_flat_projection_examples():
    assert flat_projection((3, 7), PAIR21) == (3, 0)
    assert flat_projection((4, 0), PAIR21) == (4, 0)
    assert flat_projection((1, 2, 3), FlatPair(3, 2)) == (1, 0, 0)


def test_flat_projection_minimizes_distance(rng):
    # Brute-force scan over a window of the flat.
    space = LatticeSpace(3)
    pair = FlatPair(3, 2)
    flat_points = [(t, 0, 0) for t in range(-15, 16)]
    for _ in range(1000):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = flat_projection(x, pair)
        best = min(space.distance(x, p) for p in flat_points)
        assert space.distance(x, y) == best == pair.flat_distance(x)


# -- wrong way ---------------------------------------------------------------

def test_wrong_way_example():
    c = UfChain(1, Z2, INTEGERS, {((0, -1), (0, 1)): 1})
    image = wrong_way(c, make_ctx(PAIR21))
    assert image.space == LatticeSpace(1)
    assert image.degree == 0
    assert image.terms == {((0,),): 1}


def test_wrong_way_boundary_of_one_sided_chain():
    c = UfChain(2, Z2, INTEGERS, {((0, 1), (2, 1), (1, 3)): 1, ((0, 2), (1, 1), (3, 2)): -2})
    image = wrong_way(boundary(c), make_ctx(PAIR21))
    assert image.is_zero()


def test_wrong_way_window_check():
    window = Window((-1, -1), (1, 1))
    ctx = make_ctx(PAIR21, window=window)
    c = UfChain(1, Z2, INTEGERS, {((0, -1), (0, 1)): 1})
    assert wrong_way(c, ctx).terms == {((0,),): 1}
    far = UfChain(1, Z2, INTEGERS, {((5, -1), (5, 1)): 1})
    with pytest.raises(ValueError, match="window"):
        wrong_way(far, ctx)


@pytest.mark.parametrize("group", [INTEGERS, INTEGERS_MOD_2, RATIONALS],
                         ids=lambda g: g.name)
def test_wrong_way_all_groups(group, rng):
    pair = FlatPair(3, 1)
    c, residual, _ = general_position_chain(rng, pair, 2, make_ctx(pair, group))
    assert residual.is_zero()
    image = wrong_way(c, make_ctx(pair, group))
    assert image.group == group
    assert image.space.dim == 2


# -- the sign identity -------------------------------------------------------

def test_sign_identity_away_from_flat():
    pair = FlatPair(2, 1)
    c = UfChain(2, Z2, INTEGERS, {((0, 2), (1, 3), (2, 2)): 7})
    assert sign_identity_residual(c, make_ctx(pair)).is_zero()


def test_sign_identity_single_tuple_hand_expansion():
    # One straddling tuple with k = q + 1 = 2: expand both sides termwise
    # from the two defining sums and compare against the library.
    pair = PAIR21
    q = 1
    tup = ((0, -1), (0, 1), (3, 2))
    c = UfChain(2, Z2, INTEGERS, {tup: 1})
    ctx = make_ctx(pair)

    def theta(points):
        try:
            return thom_crossing(points, pair)
        except DegeneratePosition:
            raise AssertionError("hand expansion hit a degenerate position")

    def eta(p):
        return (p[0],)

    # Left side: boundary of the projected capped tuple.
    lhs_terms = {}
    t = theta(tup[: q + 1])
    tail = [eta(p) for p in tup[q:]]
    for j in range(len(tail)):
        face = tuple(tail[:j] + tail[j + 1:])
        lhs_terms[face] = lhs_terms.get(face, 0) + t * (-1) ** j

    # Right side: the two sums of the expansion of the capped boundary.
    rhs_terms = {}
    k = len(tup) - 1
    for j in range(0, q + 2):
        dropped = tup[:j] + tup[j + 1:]
        val = theta(dropped[: q + 1])
        image = tuple(eta(p) for p in dropped[q:])
        rhs_terms[image] = rhs_terms.get(image, 0) + (-1) ** j * val
    for j in range(q + 2, k + 1):
        val = theta(tup[: q + 1])
        dropped_tail = tuple(eta(p) for p in (tup[q:j] + tup[j + 1:]))
        rhs_terms[dropped_tail] = rhs_terms.get(dropped_tail, 0) + (-1) ** j * val

    sign = -1 if q % 2 else 1
    combined = dict(lhs_terms)
    for tup_, v in rhs_terms.items():
        combined[tup_] = combined.get(tup_, 0) - sign * v
    assert all(v == 0 for v in combined.values())
    assert sign_identity_residual(c, ctx).is_zero()

    # The cancellation hinges on the obstruction term: the alternating
    # crossing sum over the (q+1)-prefix's faces vanishes.
    obstruction = sum(
        (-1) ** j * theta((tup[:j] + tup[j + 1:])[: q + 1])
        for j in range(q + 2)
    )
    assert obstruction == 0


def test_sign_identity_requires_degree():
    c = UfChain(1, Z2, INTEGERS, {((0, -1), (0, 1)): 1})
    with pytest.raises(ValueError):
        sign_identity_residual(c, make_ctx(PAIR21))


def test_wrong_way_commutes_with_tangential_translation(rng):
    # The whole map is equivariant under translations preserving the flat.
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = make_ctx(pair, perturb=True)
        for _ in range(30):
            c, _, _ = general_position_chain(rng, pair, q + 1, make_ctx(pair))
            shift = tuple(rng.randint(-4, 4) for _ in range(n - q)) + (0,) * q
            moved = UfChain(
                c.degree, c.space, c.group,
                {tuple(tuple(a + b for a, b in zip(p, shift)) for p in t): v
                 for t, v in c.terms.items()})
            image_shift = shift[: n - q]
            moved_image = UfChain(
                c.degree - q, LatticeSpace(n - q), c.group,
                {tuple(tuple(a + b for a, b in zip(p, image_shift)) for p in t): v
                 for t, v in wrong_way(c, ctx).terms.items()})
            assert wrong_way(moved, ctx) == moved_image


# -- norms --------------------------------------------------------------------

def test_norm_can_grow_on_colliding_chains():
    # Documented limitation: reinforcing collisions under the projection
    # can defeat the naive norm bound, which is why suite chains separate
    # their terms tangentially.
    c = UfChain(1, Z2, INTEGERS, {((0, -1), (0, 1)): 1, ((0, -2), (0, 2)): 1})
    w = wrong_way(c, make_ctx(PAIR21))
    assert w.terms == {((0,),): 2}
    assert uf_norm(w, 0) == 2 > uf_norm(c, 0)
