import collections
import copy
import dataclasses
import hashlib
import heapq
import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest

from coarse_chains import (
    INTEGERS,
    INTEGERS_MOD_2,
    EquivariantChain,
    FlatPair,
    LatticeSpace,
    TranslationAction,
    TruncationError,
    UfChain,
    Window,
    WrongWayContext,
    boundary,
    build_quotient_complex,
    equivariant_wrong_way,
    identify_class,
    kuhn_fundamental_cycle,
    restrict_equivariance,
    snf_homology,
    wrong_way,
)
from coarse_chains import intlinalg
from coarse_chains.equivariant import MAX_BASIS_SIZE, QuotientComplex, predicted_basis_size
from coarse_chains.intlinalg import (
    CoboundaryReduction,
    SparseIntMatrix,
    invariant_factors,
    kernel_basis,
)
from oracles import (
    dense_class_oracle,
    det_oracle,
    frac_rank_oracle,
    is_canonical,
    lattice_ball,
    lattice_coords_oracle,
    mat_mul,
    quotient_boundary_oracle,
    sparse_from_entries,
    sparse_is_zero,
    sparse_multiply,
    staircase_cycle,
    to_dense,
    transpose,
)

Z_ACT = TranslationAction.standard(1)
Z2_ACT = TranslationAction.standard(2)


def restrict_chain(chain: UfChain, window: Window) -> UfChain:
    return UfChain(chain.degree, chain.space, chain.group,
                   {t: c for t, c in chain.terms.items()
                    if all(window.contains(p) for p in t)})


# -- actions -----------------------------------------------------------------

def test_orbit_normalize_examples():
    tup = ((5, 3), (6, 3))
    assert Z2_ACT.normalize_tuple(tup) == ((0, 0), (1, 0))
    canonical = ((0, 0), (1, 0))
    assert Z2_ACT.normalize_tuple(canonical) == canonical


def test_orbit_normalize_idempotent(rng):
    for _ in range(1000):
        n = rng.choice([1, 2, 3])
        action = TranslationAction.standard(n)
        tup = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                    for _ in range(rng.randint(1, 4)))
        once = action.normalize_tuple(tup)
        assert action.normalize_tuple(once) == once
        assert is_canonical(action, once)


def test_non_axis_lattice_normalization():
    action = TranslationAction(LatticeSpace(2), ((2, 0), (0, 3)))
    assert sorted(action.fundamental_points()) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    tup = ((7, -5), (9, -4))
    rep = action.normalize_tuple(tup)
    assert is_canonical(action, rep)
    assert rep == ((1, 1), (3, 2))


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        TranslationAction(LatticeSpace(2), ((1, 1), (2, 2)))


def test_action_uniform_properness_counting():
    # A translated ball meets the original iff the translation has sup-norm
    # at most 2r, so the properness count is the number of lattice vectors
    # in that box: finite, independent of the center, of order (4r+1)^n
    # over the covolume.
    space = LatticeSpace(2)
    for gens, covol in [(((1, 0), (0, 1)), 1), (((2, 0), (0, 3)), 6)]:
        action = TranslationAction(space, gens)
        for r in (1, 2, 3):
            brute = [
                (i * gens[0][0] + j * gens[1][0], i * gens[0][1] + j * gens[1][1])
                for i in range(-20, 21) for j in range(-20, 21)
            ]
            for x in [(0, 0), (5, -3)]:
                ball = set(lattice_ball(space, x, r))
                meeting = [
                    v for v in brute
                    if ball & {tuple(a + b for a, b in zip(p, v)) for p in ball}
                ]
                expected = [v for v in brute if max(abs(v[0]), abs(v[1])) <= 2 * r]
                assert sorted(meeting) == sorted(expected)
                assert sorted(meeting) == action.lattice_vectors_in_box(
                    (-2 * r, -2 * r), (2 * r, 2 * r))
            # covolume controls the asymptotics of the properness constant
            assert abs(len(expected) - (4 * r + 1) ** 2 / covol) <= (4 * r + 1) * 4


def _random_actions(seed: int, count: int, max_dim: int = 4) -> list[TranslationAction]:
    """Seeded actions of rank 1..n on Z^1..Z^max_dim with small generators."""
    rng = random.Random(seed)
    out = []
    for _ in range(10 * count):  # seed 11 took 128 draws for 120 actions
        if len(out) == count:
            break
        n = rng.randint(1, max_dim)
        r = rng.randint(1, n)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if frac_rank_oracle(gens) == r:
            out.append(TranslationAction(LatticeSpace(n), tuple(map(tuple, gens))))
    assert len(out) == count, f"only {len(out)} of {count} actions in {10 * count} draws"
    return out


def _columns(action: TranslationAction) -> list[list[int]]:
    return [[g[i] for g in action.generators] for i in range(action.space.dim)]


def _in_lattice_oracle(action: TranslationAction, v) -> bool:
    coords = lattice_coords_oracle(action.generators, v)
    return (all(c.denominator == 1 for c in coords)
            and all(sum(g[i] * c for g, c in zip(action.generators, coords)) == v[i]
                    for i in range(len(v))))


def test_normalize_and_membership_match_fraction_coordinates():
    actions = _random_actions(11, 120)
    # Both determinant signs, and rank-deficient actions, are covered.
    assert {det_oracle(_columns(a)) > 0 for a in actions if a.is_full_rank()} == {True, False}
    assert any(not a.is_full_rank() for a in actions)
    rng = random.Random(12)
    off_span = 0  # integral on the pivot rows, yet outside the lattice's span
    for action in actions:
        n, gens = action.space.dim, action.generators
        for trial in range(20):
            v0 = [rng.randint(-12, 12) for _ in range(n)]
            if trial % 4 == 0:  # a lattice vector, so membership is exercised both ways
                m = [rng.randint(-3, 3) for _ in gens]
                v0 = [sum(g[i] * c for g, c in zip(gens, m)) for i in range(n)]
            tup = (tuple(v0), tuple(x + rng.randint(-2, 2) for x in v0))
            coords = lattice_coords_oracle(gens, v0)
            shift = [math.floor(c) for c in coords]
            expected = tuple(
                tuple(p[i] - sum(g[i] * c for g, c in zip(gens, shift)) for i in range(n))
                for p in tup)
            assert action.normalize_tuple(tup) == expected
            assert action.canonical_shift(tup[0]) == tuple(shift)
            member = _in_lattice_oracle(action, v0)
            assert action.has_integral_coords(v0) == member
            off_span += all(c.denominator == 1 for c in coords) and not member
    assert off_span > 0


def test_fundamental_points_match_fraction_coordinates():
    actions = [a for a in _random_actions(13, 200, max_dim=3) if a.is_full_rank()][:20]
    assert {det_oracle(_columns(a)) > 0 for a in actions} == {True, False}
    for action in actions:
        box = [range(sum(min(0, g[i]) for g in action.generators),
                     sum(max(0, g[i]) for g in action.generators) + 1)
               for i in range(action.space.dim)]
        expected = [p for p in itertools.product(*box)
                    if all(0 <= c < 1 for c in lattice_coords_oracle(action.generators, p))]
        assert action.fundamental_points() == expected
        assert len(expected) == abs(det_oracle(_columns(action)))


def test_lattice_vectors_in_box_match_fraction_coordinates():
    rng = random.Random(14)
    trivial = [TranslationAction(LatticeSpace(n), ()) for n in (1, 2, 3) for _ in range(4)]
    for action in _random_actions(15, 60) + trivial:
        n = action.space.dim
        lo = [rng.randint(-5, 1) for _ in range(n)]
        hi = [a + rng.randint(0, 4) for a in lo]
        expected = [p for p in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
                    if _in_lattice_oracle(action, p)]
        assert action.lattice_vectors_in_box(lo, hi) == expected


def _check_restriction(c, sub, pair, radius, half_width) -> int:
    """Assert that the restriction's window expansion is the orbit sum of c
    in the window filtered to tuples within radius of the flat; returns the
    number of tuples compared.  The orbit sum tries every integer offset
    keeping a tuple in the window, membership checked as in
    test_normalize_and_membership_match_fraction_coordinates (a skewed
    action's expand would try far more coefficient vectors)."""
    want = {}
    for tup, coeff in c.terms.items():
        box = [range(-half_width - min(col), half_width - max(col) + 1) for col in zip(*tup)]
        for offset in itertools.product(*box):
            moved = c.action.translate_tuple(tup, offset)
            if (c.action.has_integral_coords(offset)
                    and max(pair.flat_distance(p) for p in moved) <= radius):
                assert moved not in want
                want[moved] = coeff
    window = Window.cube(pair.ambient_dim, half_width)
    assert restrict_equivariance(c, sub, pair, radius).expand(window).terms == want
    return len(want)


def test_restrict_equivariance_membership_matches_fraction_coordinates():
    # Pairs of codimension n - 1 and a one-generator tangential sublattice
    # k e_1.  The action must contain k e_1, which then has index k / t in
    # the action's tangential part t e_1 (t found by brute force).
    outcomes = collections.Counter()
    for action in _random_actions(16, 200, max_dim=3):
        n = action.space.dim
        if n < 2 or not action.is_full_rank():
            continue
        pair = FlatPair(n, n - 1)
        index = abs(int(det_oracle(_columns(action))))
        axis = [(x,) + (0,) * (n - 1) for x in range(1, index + 1)]
        t = next(v[0] for v in axis if _in_lattice_oracle(action, v))
        chain = EquivariantChain(0, action, INTEGERS, {((0,) * n,): 1})
        for k in range(1, 5):
            sub = TranslationAction(LatticeSpace(n), ((k,) + (0,) * (n - 1),))
            coords = lattice_coords_oracle(action.generators, sub.generators[0])
            if any(c.denominator != 1 for c in coords):
                outcomes["outside"] += 1
                with pytest.raises(ValueError, match="is not in the acting lattice"):
                    restrict_equivariance(chain, sub, pair, 1)
                continue
            outcomes["index 1" if k == t else "finite index"] += 1
            assert restrict_equivariance(chain, sub, pair, 1).action == sub
            assert _check_restriction(chain, sub, pair, 1, 2 * k) > 0
    print(f"restriction membership cases: {dict(outcomes)}")
    assert set(outcomes) == {"outside", "index 1", "finite index"}


# -- equivariant chains -------------------------------------------------------

def test_equivariant_chain_normalizes_terms():
    c = EquivariantChain(1, Z_ACT, INTEGERS, {((3,), (4,)): 2})
    assert c.terms == {((0,), (1,)): 2}


@pytest.mark.parametrize("action", [
    {"space": {"kind": "lattice", "dim": 1}, "generators": [[1.9]]},
    {"space": {"kind": "lattice", "dim": 1}, "generators": [[True]]},
    {"space": {"kind": "lattice", "dim": True}, "generators": [[1]]},
])
def test_equivariant_chain_json_needs_an_integer_action(action):
    data = EquivariantChain(1, Z_ACT, INTEGERS, {((0,), (1,)): 1}).to_json()
    data["action"] = action
    with pytest.raises(ValueError):
        EquivariantChain.from_json(data)


def test_equivariant_chain_json_round_trip():
    c = EquivariantChain(2, Z2_ACT, INTEGERS,
                         {((0, 0), (1, 0), (1, 1)): 1, ((0, 0), (0, 1), (1, 1)): -1})
    data = c.to_json()
    assert data["action"]["generators"] == [[1, 0], [0, 1]]
    assert EquivariantChain.from_json(data) == c
    # Pinned literal on a non-standard action: terms are stored and written
    # as canonical orbit representatives.
    action = TranslationAction(LatticeSpace(2), ((2, 1), (0, 3)))
    c = EquivariantChain(1, action, INTEGERS,
                         {((5, 4), (6, 4)): 2, ((-1, 0), (0, 1)): -1, ((1, 1), (1, 2)): 3})
    literal = (
        '{"action": {"generators": [[2, 1], [0, 3]], "space": {"dim": 2, "kind": "lattice"}}, '
        '"degree": 1, "group": "Z", "terms": ['
        '{"coeff": 3, "tuple": [[1, 1], [1, 2]]}, '
        '{"coeff": -1, "tuple": [[1, 1], [2, 2]]}, '
        '{"coeff": 2, "tuple": [[1, 2], [2, 2]]}]}')
    assert json.dumps(c.to_json(), sort_keys=True) == literal
    assert EquivariantChain.from_json(json.loads(literal)) == c


def test_expand_matches_manual_enumeration():
    c = EquivariantChain(1, Z_ACT, INTEGERS, {((0,), (1,)): 1})
    window = Window((-2,), (2,))
    expanded = c.expand(window)
    assert expanded.terms == {
        ((-2,), (-1,)): 1, ((-1,), (0,)): 1, ((0,), (1,)): 1, ((1,), (2,)): 1}


def test_equivariant_boundary_telescopes():
    c = EquivariantChain(1, Z_ACT, INTEGERS, {((0,), (1,)): 1})
    assert boundary(c).is_zero()


def test_equivariant_boundary_squared_random(rng):
    for _ in range(200):
        n = rng.choice([1, 2])
        action = TranslationAction.standard(n)
        degree = rng.randint(2, 4)
        terms = []
        for _ in range(3):
            tup = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                        for _ in range(degree + 1))
            terms.append((tup, rng.choice([-2, -1, 1, 2])))
        c = EquivariantChain(degree, action, INTEGERS, terms)
        assert boundary(boundary(c)).is_zero()


def test_equivariant_boundary_window_coherence(rng):
    # Expanding the equivariant boundary agrees with taking the plain
    # boundary of the expansion, away from the window rim.
    for _ in range(50):
        n = rng.choice([1, 2])
        action = TranslationAction.standard(n)
        degree = rng.randint(1, 3)
        terms = []
        for _ in range(3):
            tup = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                        for _ in range(degree + 1))
            terms.append((tup, rng.choice([-2, -1, 1, 2])))
        c = EquivariantChain(degree, action, INTEGERS, terms)
        window = Window.cube(n, 8)
        core = Window.cube(n, 8 - (c.propagation() + 1))
        via_equivariant = restrict_chain(boundary(c).expand(window), core)
        via_expansion = restrict_chain(boundary(c.expand(window)), core)
        assert via_equivariant == via_expansion


# -- the Kuhn cycle -----------------------------------------------------------

@pytest.mark.parametrize("n,reps", [(1, 1), (2, 2), (3, 6)])
def test_kuhn_cycle_shape(n, reps):
    c = kuhn_fundamental_cycle(n)
    assert c.degree == n
    assert len(c.terms) == reps
    assert c.propagation() == 1
    assert all(coeff in (1, -1) for coeff in c.terms.values())
    assert boundary(c).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kuhn_cycle_window_expansion_oracle(n):
    # Oracle: expand over a 3-fundamental-domain window and apply the plain
    # boundary; everything away from the rim must cancel.
    c = kuhn_fundamental_cycle(n)
    window = Window.cube(n, 3)
    core = Window.cube(n, 1)
    assert restrict_chain(boundary(c.expand(window)), core).is_zero()


def test_kuhn_cycle_mod2():
    c = kuhn_fundamental_cycle(2, INTEGERS_MOD_2)
    assert all(v == 1 for v in c.terms.values())
    assert boundary(c).is_zero()


# -- restriction of equivariance ---------------------------------------------

def test_restrict_kuhn_strip():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    c = kuhn_fundamental_cycle(2)
    r = restrict_equivariance(c, sub, pair, 1)
    assert len(r.terms) == 4
    assert all(max(pair.flat_distance(p) for p in t) <= 1 for t in r.terms)
    # window-expansion comparison: the restriction is the orbit sum filtered
    # to tuples within distance 1 of the flat.
    window = Window.cube(2, 6)
    got = r.expand(window)
    full = c.expand(window)
    want = UfChain(2, full.space, INTEGERS,
                   {t: v for t, v in full.terms.items()
                    if max(pair.flat_distance(p) for p in t) <= 1})
    assert got == want


def test_restrict_identity_when_sub_equals_action():
    pair = FlatPair(2, 1)
    c = kuhn_fundamental_cycle(2)
    r = restrict_equivariance(c, c.action, pair, 5)
    assert r == c


def test_restrict_far_from_flat_is_zero():
    # A coarse normal lattice can place every coset translate too far out.
    action = TranslationAction(LatticeSpace(2), ((1, 0), (0, 5)))
    pair = FlatPair(2, 1)
    sub = TranslationAction(LatticeSpace(2), ((1, 0),))
    c = EquivariantChain(1, action, INTEGERS, {((0, 2), (1, 2)): 1})
    r = restrict_equivariance(c, sub, pair, 1)
    assert r.is_zero()


def test_restrict_to_proper_tangential_sublattice():
    # 2Z x {0} has index 2 in the tangential part of Z^2: each Z^2-orbit
    # near the flat splits into two orbits of the sublattice, one over each
    # of its fundamental points 0 and 1.
    pair = FlatPair(2, 1)
    sub = TranslationAction(LatticeSpace(2), ((2, 0),))
    c = kuhn_fundamental_cycle(2)
    r = restrict_equivariance(c, sub, pair, 1)
    assert len(r.terms) == 8
    assert {t[0][0] for t in r.terms} == {0, 1}
    assert _check_restriction(c, sub, pair, 1, 6) > 0


def _random_flat_setting(rng, n, q):
    """A skewed cocompact action on Z^n whose tangential part is a random
    lattice L x 0, a sublattice of L of random index in it, and that index.
    A is spanned by L x 0 and q vectors (w, N) with N nonsingular, so a
    vector of A lies in the flat exactly when it lies in L x 0."""
    k = n - q

    def nonsingular(size, lo, hi):
        while True:
            m = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)]
            if det_oracle(m):
                return m

    tangent = nonsingular(k, -2, 2)
    normal = nonsingular(q, -2, 2)
    gens = [row + [0] * q for row in tangent]
    gens += [[rng.randint(-2, 2) for _ in range(k)] + row for row in normal]
    for _ in range(2):  # skew the generators by unimodular row operations
        a, b = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        gens[a] = [x + sign * y for x, y in zip(gens[a], gens[b])]
    action = TranslationAction(LatticeSpace(n), tuple(map(tuple, gens)))
    mix = [[rng.randint(1, 3) if i == j else rng.randint(-1, 1) * (j > i) for j in range(k)]
           for i in range(k)]
    sub_gens = tuple(tuple(sum(c * row[i] for c, row in zip(m_row, tangent)) for i in range(k))
                     + (0,) * q for m_row in mix)
    index = abs(int(det_oracle(mix)))
    return action, TranslationAction(LatticeSpace(n), sub_gens), index


def test_restrict_to_random_sublattices_matches_orbit_sums():
    # Skewed cocompact actions on Z^2 and Z^3, every codimension, random
    # tangential sublattices of index 1 or more, and random chains.
    rng = random.Random(24)
    cases = collections.Counter()
    for _ in range(100):
        n = rng.randint(2, 3)
        pair = FlatPair(n, rng.randint(1, n), rng.choice((1, -1)))
        action, sub, index = _random_flat_setting(rng, n, pair.codim)
        degree = rng.randint(0, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            first = [rng.randint(-3, 3) for _ in range(n)]
            terms[tuple(tuple(x + rng.randint(-1, 1) for x in first)
                        for _ in range(degree + 1))] = rng.choice((-2, -1, 1, 2))
        c = EquivariantChain(degree, action, INTEGERS, terms)
        radius = max(1, c.propagation()) + rng.randint(0, 1)
        compared = _check_restriction(c, sub, pair, radius, 5)
        cases["finite index" if index > 1 else "index 1"] += 1
        cases["nonzero"] += compared > 0
    print(f"random restriction cases: {dict(cases)}")
    assert cases["finite index"] >= 30 and cases["index 1"] >= 20
    assert cases["nonzero"] >= 60


def test_restrict_refuses_actions_below_full_rank_and_small_sublattices():
    pair = FlatPair(3, 1)
    # Below full rank: sub = the action's whole tangential part, yet the
    # action is not cocompact.
    action = TranslationAction(LatticeSpace(3), ((1, 0, 0), (0, 0, 1)))
    sub = TranslationAction(LatticeSpace(3), ((1, 0, 0),))
    c = EquivariantChain(0, action, INTEGERS, {((0, 0, 0),): 1})
    with pytest.raises(ValueError, match="cocompact action and a sublattice spanning"):
        restrict_equivariance(c, sub, pair, 1)
    # (0, 1, 0) has integral coordinates (0, 0) on the pivot rows 0 and 2.
    assert not action.has_integral_coords((0, 1, 0))
    assert not action.has_integral_coords((2, 1, -3))
    assert action.has_integral_coords((2, 0, -3))
    outside = TranslationAction(LatticeSpace(3), ((0, 1, 0),))
    with pytest.raises(ValueError, match="is not in the acting lattice"):
        restrict_equivariance(c, outside, pair, 1)
    # Rank 1 < n - q = 2 in a cocompact action.
    c = kuhn_fundamental_cycle(3)
    with pytest.raises(ValueError, match="cocompact action and a sublattice spanning"):
        restrict_equivariance(c, sub, pair, 1)


def test_restrict_makes_no_dense_smith_form(monkeypatch):
    calls = collections.Counter()
    for name in ("snf_with_transforms", "_smith"):
        original = getattr(intlinalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(intlinalg, name, counted)
    lattice = TranslationAction(LatticeSpace(3), ((1, 1, 0), (0, 1, 1), (1, 0, 2)))
    c = EquivariantChain(0, lattice, INTEGERS, {((0, 0, 0),): 1})
    for sub, pair in [(TranslationAction(LatticeSpace(3), ((3, 0, 0),)), FlatPair(3, 2)),
                      (TranslationAction(LatticeSpace(3), ((6, 0, 0),)), FlatPair(3, 2))]:
        assert not restrict_equivariance(c, sub, pair, 1).is_zero()
    pair = FlatPair(4, 2)
    restrict_equivariance(kuhn_fundamental_cycle(4), TranslationAction.tangential(pair), pair, 1)
    assert calls == {}


def test_restrict_truncation_error():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    c = kuhn_fundamental_cycle(2)
    with pytest.raises(TruncationError):
        restrict_equivariance(c, sub, pair, 0)


# -- equivariant wrong-way map -------------------------------------------------

def test_equivariant_wrong_way_t2_chain_level():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    r = restrict_equivariance(kuhn_fundamental_cycle(2), sub, pair, 1)
    image = equivariant_wrong_way(r, WrongWayContext(pair, INTEGERS, perturb=True))
    assert image.terms == {((0,), (1,)): -1}
    assert image.action == TranslationAction.standard(1)


def test_equivariant_wrong_way_mod2_and_rational():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    for group, want in ((INTEGERS_MOD_2, 1), (INTEGERS, -1)):
        cycle = kuhn_fundamental_cycle(2, group)
        r = restrict_equivariance(cycle, sub, pair, 1)
        image = equivariant_wrong_way(r, WrongWayContext(pair, group, perturb=True))
        assert image.terms == {((0,), (1,)): group.coerce(want)}


def test_transport_t4_to_t2_class():
    # Codimension-2 transport one dimension above the acceptance set:
    # the image of the T^4 fundamental cycle is a 2-cycle generating
    # H_2(T^2).
    pair = FlatPair(4, 2)
    sub = TranslationAction.tangential(pair)
    restricted = restrict_equivariance(kuhn_fundamental_cycle(4), sub, pair, 1)
    image = equivariant_wrong_way(
        restricted, WrongWayContext(pair, INTEGERS, perturb=True))
    assert boundary(image).is_zero()
    qc = build_quotient_complex(TranslationAction.standard(2), 1, range(4))
    assert identify_class(image, qc) in ([1], [-1])


def test_equivariant_wrong_way_zero_input():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    zero = EquivariantChain(2, sub, INTEGERS, {})
    assert equivariant_wrong_way(zero, WrongWayContext(pair, INTEGERS)).is_zero()


def test_equivariant_wrong_way_rejects_normal_action():
    pair = FlatPair(2, 1)
    c = kuhn_fundamental_cycle(2)  # full Z^2 action moves the flat
    with pytest.raises(ValueError):
        equivariant_wrong_way(c, WrongWayContext(pair, INTEGERS, perturb=True))


def _random_tangential_chain(rng, pair, degree):
    sub = TranslationAction.tangential(pair)
    n = pair.ambient_dim
    terms = []
    for _ in range(3):
        base = tuple(rng.randint(-2, 2) for _ in range(n))
        tup = tuple(tuple(b + rng.randint(-1, 1) for b in base)
                    for _ in range(degree + 1))
        terms.append((tup, rng.choice([-2, -1, 1, 2])))
    return EquivariantChain(degree, sub, INTEGERS, terms)


def test_equivariant_sign_identity_random(rng):
    for n, q in ((2, 1), (3, 1), (3, 2)):
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS, perturb=True)
        for _ in range(30):
            c = _random_tangential_chain(rng, pair, q + 1)
            lhs = boundary(equivariant_wrong_way(c, ctx))
            rhs = equivariant_wrong_way(boundary(c), ctx)
            residual = lhs - rhs.scale(-1 if q % 2 else 1)
            assert residual.is_zero()


def test_equivariant_wrong_way_window_coherence(rng):
    # Expanding the image equals applying the plain map to the expansion,
    # compared away from the rim (margin: propagation of the chain).
    for n, q in ((2, 1), (3, 1), (3, 2)):
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS, perturb=True)
        for _ in range(20):
            c = _random_tangential_chain(rng, pair, q + 1)
            radius = 7
            window = Window.cube(n, radius)
            margin = c.propagation() + 1
            core = Window.cube(n - q, radius - margin)
            expanded = c.expand(window)
            plain = wrong_way(expanded, ctx)
            got = restrict_chain(equivariant_wrong_way(c, ctx).expand(
                Window.cube(n - q, radius)), core)
            want = restrict_chain(plain, core)
            assert got == want


# -- quotient complexes ---------------------------------------------------------

def _enumerate_basis_oracle(n, r_max, degree):
    # Independent enumeration: canonical first vertex 0, remaining vertices
    # in the r_max-ball with all pairwise coordinates within r_max.
    ball = list(itertools.product(*[range(-r_max, r_max + 1)] * n))
    count = 0
    for rest in itertools.product(ball, repeat=degree):
        pts = [(0,) * n] + [tuple(p) for p in rest]
        ok = True
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if max(abs(a - b) for a, b in zip(pts[i], pts[j])) > r_max:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_quotient_basis_sizes_frozen_by_oracle():
    qc = build_quotient_complex(Z_ACT, 1, range(2))
    # Degree-1 basis holds the edge, its mirror and the degenerate loop;
    # closure under the boundary forces the mirrored edge into the basis.
    assert [qc.basis_size(d) for d in qc.degrees] == [1, 3]
    assert sorted(qc.bases[1]) == [((0,), (-1,)), ((0,), (0,)), ((0,), (1,))]
    for d in qc.degrees:
        assert qc.basis_size(d) == _enumerate_basis_oracle(1, 1, d)
    qc2 = build_quotient_complex(Z2_ACT, 1, range(3))
    for d in qc2.degrees:
        assert qc2.basis_size(d) == _enumerate_basis_oracle(2, 1, d)


def _brute_force_basis_oracle(action, r_max, degree, oriented):
    # Every (degree+1)-tuple within r_max of a first vertex that Fraction
    # coordinates put in the fundamental domain, filtered by pairwise spread
    # and, for the oriented basis, by strictly increasing vertices.
    gens, n = action.generators, action.space.dim
    box = [range(sum(min(0, g[i]) for g in gens), sum(max(0, g[i]) for g in gens) + 1)
           for i in range(n)]
    offsets = list(itertools.product(range(-r_max, r_max + 1), repeat=n))
    out = []
    for v0 in itertools.product(*box):
        if not all(0 <= c < 1 for c in lattice_coords_oracle(gens, v0)):
            continue
        ball = [tuple(a + b for a, b in zip(v0, o)) for o in offsets]
        for rest in itertools.product(ball, repeat=degree):
            tup = (v0,) + rest
            if any(max(abs(a - b) for a, b in zip(x, y)) > r_max
                   for x, y in itertools.combinations(tup, 2)):
                continue
            if oriented and any(x >= y for x, y in zip(tup, tup[1:])):
                continue
            out.append(tup)
    return sorted(out)


QUOTIENT_CASES = [
    (Z_ACT, 1, range(3)), (Z_ACT, 2, range(3)),
    (Z2_ACT, 1, range(4)), (Z2_ACT, 2, range(4)),
    (TranslationAction(LatticeSpace(2), ((2, 1), (0, 3))), 1, range(1, 4)),
]
QUOTIENT_IDS = ["T1-R1", "T1-R2", "T2-R1", "T2-R2", "skew"]


@pytest.mark.parametrize("action, r_max, degrees", QUOTIENT_CASES, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "oriented"])
def test_quotient_bases_match_brute_force(action, r_max, degrees, ordered):
    qc = build_quotient_complex(action, r_max, degrees, include_degenerate=ordered)
    assert sorted(qc.bases) == list(degrees)
    for d in degrees:
        basis = qc.bases[d]
        assert basis == sorted(basis)
        assert basis == _brute_force_basis_oracle(action, r_max, d, not ordered)


SKEW3_ACT = TranslationAction(LatticeSpace(3), ((1, 1, 0), (0, 1, 1), (1, 0, 2)))


@pytest.mark.parametrize("action, r_max, degrees", QUOTIENT_CASES + [
    (TranslationAction(LatticeSpace(2), ((1, 1), (1, -1))), 1, range(4)),
    # Three fundamental points; at R = 2 each digit takes K = 125 codes.
    (SKEW3_ACT, 1, range(3)), (SKEW3_ACT, 2, range(2)),
], ids=QUOTIENT_IDS + ["diagonal", "skew3-R1", "skew3-R2"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "oriented"])
def test_quotient_boundaries_match_brute_force(action, r_max, degrees, ordered):
    # The build computes faces on displacement codes and stores d_d^T; the
    # oracle sends every face tuple through normalize_tuple.
    qc = build_quotient_complex(action, r_max, degrees, include_degenerate=ordered)
    assert sorted(qc.matrices) == [d for d in degrees if d - 1 in qc.bases]
    for d, matrix in qc.matrices.items():
        assert (matrix.nrows, matrix.ncols) == (qc.basis_size(d), qc.basis_size(d - 1))
        assert to_dense(matrix) == transpose(quotient_boundary_oracle(qc, d))


@pytest.mark.parametrize("n, ordered, digest", [
    (3, True, "faece56eec97387d51b2cb48d5bc2668edf6e3f5ec00373a30b340e5f7dad3a4"),
    (4, False, "71b0f9aa8a1000beff4f5ddee97fccedb72701dab27158709b96e4a4f7a8d798"),
], ids=["T3-ordered", "T4-oriented"])
def test_benchmark_complexes_are_pinned(n, ordered, digest):
    # Too large for the dense oracle: bases and every coboundary (shape and
    # column dicts, in order) must hash as the coboundaries that the
    # reduction built by transposing the boundary matrices did.
    qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2),
                                include_degenerate=ordered)
    state = (qc.bases, {d: (m.nrows, m.ncols, m.cols) for d, m in qc.matrices.items()})
    assert hashlib.sha256(repr(state).encode()).hexdigest() == digest


def test_quotient_build_cost_is_bounded(monkeypatch):
    # Faces are digit arithmetic: no tuple is normalized, and one
    # canonical_offset per (fundamental point, displacement code) at most.
    calls = {"normalize_tuple": 0, "canonical_offset": 0}
    for name in calls:
        original = getattr(TranslationAction, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TranslationAction, name, counted)
    t3 = TranslationAction.standard(3)
    qc = build_quotient_complex(t3, 1, range(5))
    assert qc.basis_size(4) == 29_791
    assert calls["normalize_tuple"] == 0
    assert 0 < calls["canonical_offset"] <= len(t3.fundamental_points()) * 3 ** 3


def test_quotient_matrices_compose_to_zero():
    qc = build_quotient_complex(Z2_ACT, 1, range(4))
    assert qc.reduction.composes_to_zero()


def _sparse(rows, ncols=None):
    return sparse_from_entries(len(rows), len(rows[0]) if rows else ncols,
                               [(i, j, x) for i, row in enumerate(rows)
                                for j, x in enumerate(row) if x])


def _kernel_matrix(a):
    """An integral basis of ker(A), one column per vector."""
    kernel = kernel_basis(a)
    return [[col[i] for col in kernel] for i in range(len(a[0]))]


def _boundary_pair(rng, composes):
    """A random 3 x 4 d_1 and a d_2 below it, from integral kernel vectors
    of d_1 when composes (so d_1 d_2 = 0), else at random."""
    d1 = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(4)] for _ in range(3)]
    if composes:
        return d1, _kernel_matrix(d1)
    return d1, [[rng.choice([0, 1, -1]) for _ in range(3)] for _ in range(4)]


def test_composition_is_zero_matches_product_oracle():
    # Even trials take d_2 from integral kernel vectors of d_1, so the
    # streamed check meets both answers; sparse_multiply is the oracle.
    rng = random.Random(12)
    answers = []
    for trial in range(60):
        d1, d2 = _boundary_pair(rng, trial % 2 == 0)
        m1, m2 = _sparse(d1), _sparse(d2)
        qc = QuotientComplex(action=Z_ACT, r_max=1, degrees=(0, 1, 2), bases={},
                             matrices={1: m1.transposed(), 2: m2.transposed()})
        answers.append(qc.reduction.composes_to_zero())
        assert answers[-1] == sparse_is_zero(sparse_multiply(m1, m2))
    assert set(answers) == {True, False}


@pytest.mark.parametrize("action, r_max, degrees", QUOTIENT_CASES + [
    (TranslationAction.standard(3), 1, range(5)),
    (TranslationAction(LatticeSpace(3), ((1, 1, 0), (0, 1, 1), (1, 0, 2))), 2, range(3)),
], ids=QUOTIENT_IDS + ["T3-R1", "skew3-R2"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "oriented"])
def test_predicted_basis_size_is_exact(action, r_max, degrees, ordered):
    qc = build_quotient_complex(action, r_max, degrees, include_degenerate=ordered)
    for d in degrees:
        assert qc.basis_size(d) == predicted_basis_size(action, r_max, d, ordered)


def test_oversized_quotient_is_refused_before_enumeration(no_enumeration):
    # T^4 at spread 1 has 63^4 ordered tuples in degree 5, over the cap.
    t4 = TranslationAction.standard(4)
    with pytest.raises(TruncationError,
                       match=rf"15752961 tuples, above the cap of {MAX_BASIS_SIZE}"):
        build_quotient_complex(t4, 1, range(6))
    # Its oriented basis has 7,896, so that build goes on to enumerate.
    assert predicted_basis_size(t4, 1, 5, False) == 7896
    with pytest.raises(AssertionError, match="started enumerating"):
        build_quotient_complex(t4, 1, range(6), include_degenerate=False)


def test_quotient_cap_admits_every_bundled_and_benchmarked_complex():
    # The bundled scenarios build tori of at most their ambient dimension,
    # in degrees up to one above it; the largest complexes the tests and
    # the benchmark build are T^3 ordered and T^4 oriented at spread 1.
    from coarse_chains.scenarios import load_scenario
    from test_golden import BUNDLED

    requests = [(3, 1, True), (4, 1, False)]
    for name in BUNDLED:
        config = load_scenario(name)
        requests.append((config["pair"]["ambient_dim"], config["r_max"], True))
        requests += [(step["torus"], config["r_max"], True)
                     for step in config["pipeline"] if step["op"] == "homology"]
    for n, r_max, ordered in requests:
        assert predicted_basis_size(TranslationAction.standard(n), r_max, n + 1,
                                    ordered) <= MAX_BASIS_SIZE


def test_empty_degree_range():
    qc = build_quotient_complex(Z_ACT, 1, [])
    assert qc.degrees == ()
    assert qc.matrices == {}


def test_quotient_requires_full_rank():
    sub = TranslationAction(LatticeSpace(2), ((1, 0),))
    with pytest.raises(ValueError):
        build_quotient_complex(sub, 1, range(2))


# -- homology -------------------------------------------------------------------

@pytest.mark.parametrize("n,betti", [(1, [1, 1]), (2, [1, 2, 1])])
def test_torus_homology(n, betti):
    qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2))
    report = snf_homology(qc)
    assert [report.betti()[d] for d in range(n + 1)] == betti
    assert all(e.torsion == () for e in report.entries)


@pytest.mark.parametrize("n", [1, 2])
def test_torus_homology_cross_checked(n):
    # Independent route: Fraction row-echelon ranks plus sympy's Smith form.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2))
    sizes = {d: qc.basis_size(d) for d in qc.degrees}
    ranks = {d: frac_rank_oracle(transpose(to_dense(m))) for d, m in qc.matrices.items()}
    report = snf_homology(qc)
    for entry in report.entries:
        d = entry.degree
        assert entry.betti == sizes[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        dense = transpose(to_dense(qc.matrices[d + 1]))
        snf = smith_normal_form(sympy.Matrix(dense))
        factors = [abs(int(snf[i, i]))
                   for i in range(min(len(dense), len(dense[0])))
                   if snf[i, i] != 0]
        assert tuple(x for x in factors if x > 1) == entry.torsion


def test_degenerate_free_basis_same_betti():
    for n in (1, 2):
        full = snf_homology(build_quotient_complex(
            TranslationAction.standard(n), 1, range(n + 2)))
        lean = snf_homology(build_quotient_complex(
            TranslationAction.standard(n), 1, range(n + 2), include_degenerate=False))
        assert full.betti() == lean.betti()


def _complex_of(boundaries):
    """A QuotientComplex around hand-made boundary matrices d_1, d_2, ...,
    stored as their transposes; its bases are placeholders of the right sizes."""
    sizes = [len(boundaries[0])] + [len(d[0]) for d in boundaries]
    return QuotientComplex(
        action=Z_ACT, r_max=1, degrees=tuple(range(len(sizes))),
        bases={k: [()] * size for k, size in enumerate(sizes)},
        matrices={k + 1: _sparse(d, sizes[k + 1]).transposed()
                  for k, d in enumerate(boundaries)})


def _dense_homology_oracle(boundaries):
    """[(degree, betti, torsion)] from the dense Smith form of each d_k."""
    sizes = [len(boundaries[0])] + [len(d[0]) for d in boundaries]
    factors = [[]] + [invariant_factors(d) for d in boundaries] + [[]]
    return [(k, sizes[k] - len(factors[k]) - len(factors[k + 1]),
             tuple(x for x in factors[k + 1] if x > 1)) for k in range(len(boundaries))]


def _random_chain_complex(rng):
    """Boundaries d_1, ..., d_4 with every d_k d_{k+1} = 0.  Past the pair
    of _boundary_pair, each d_{k+1} is a kernel basis of d_k times a random
    integer matrix, so its image is a sublattice of ker d_k and torsion shows."""
    def onto_sublattice(kernel):
        m = len(kernel[0])
        mix = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(rng.randint(1, m + 1))]
               for _ in range(m)]
        return mat_mul(kernel, mix)

    d1, d2 = _boundary_pair(rng, True)
    out = [d1, onto_sublattice(d2)]
    while len(out) < 4 and kernel_basis(out[-1]):
        out.append(onto_sublattice(_kernel_matrix(out[-1])))
    return out


def test_cleared_homology_matches_dense_oracle(monkeypatch):
    # Each coboundary is reduced once, skipping the columns at the unit
    # lows of the one below it.
    cleared = []
    original = intlinalg._reduce_columns

    def spy(cols, skip=(), transform=False):
        cleared.append(len(skip))
        return original(cols, skip, transform)

    monkeypatch.setattr(intlinalg, "_reduce_columns", spy)
    rng = random.Random(13)
    torsion = 0
    for _ in range(60):
        boundaries = _random_chain_complex(rng)
        report = snf_homology(_complex_of(boundaries))
        want = _dense_homology_oracle(boundaries)
        assert [(e.degree, e.betti, e.torsion) for e in report.entries] == want
        torsion += any(t for _, _, t in want)
    assert torsion >= 10
    assert sum(cleared) >= 60, "clearing skipped too few columns to be tested"


def test_non_unit_lows_never_clear():
    # d_2 = (2 4) gives H_1 = Z/2 and, as a coboundary, the non-unit low 4
    # at t; d_3 = 2s - t spans ker d_2.  Clearing column t of d_3^T would
    # leave (2) and a false Z/2 in H_2.
    boundaries = [[[0]], [[2, 4]], [[2], [-1]]]
    report = snf_homology(_complex_of(boundaries))
    assert [(e.degree, e.betti, e.torsion) for e in report.entries] == [
        (0, 1, ()), (1, 0, (2,)), (2, 0, ())]
    assert _dense_homology_oracle(boundaries) == [(0, 1, ()), (1, 0, (2,)), (2, 0, ())]


@pytest.mark.parametrize("n, ordered, bound", [(3, True, 40_000), (4, False, 25_000)])
def test_snf_homology_reduction_cost_is_bounded(n, ordered, bound, monkeypatch):
    # With clearing these make 19,072 and 11,417 heap pops; reducing the same
    # coboundaries without clearing makes 641,002 and 276,894.
    pops = [0]

    def counting_pop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(intlinalg, "heapq",
                        SimpleNamespace(heappop=counting_pop, heappush=heapq.heappush))
    qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2),
                                include_degenerate=ordered)
    report = snf_homology(qc)
    assert [report.betti()[d] for d in range(n + 1)] == [math.comb(n, d) for d in range(n + 1)]
    assert 0 < pops[0] <= bound


def test_snf_homology_rejects_non_complex():
    qc = build_quotient_complex(Z_ACT, 1, range(3))
    qc.matrices[2] = qc.matrices[2].transposed()
    with pytest.raises(ValueError):
        snf_homology(qc)


# -- class identification --------------------------------------------------------

def test_identify_kuhn_class_is_generator():
    qc = build_quotient_complex(Z2_ACT, 1, range(4))
    cls = identify_class(kuhn_fundamental_cycle(2), qc)
    assert cls in ([1], [-1])
    # deterministic across rebuilds
    qc2 = build_quotient_complex(Z2_ACT, 1, range(4))
    assert identify_class(kuhn_fundamental_cycle(2), qc2) == cls


def test_identify_refuses_oriented_basis():
    qc = build_quotient_complex(Z2_ACT, 1, range(4), include_degenerate=False)
    with pytest.raises(ValueError, match="ordered basis"):
        identify_class(kuhn_fundamental_cycle(2), qc)


def test_identify_boundary_is_zero():
    qc = build_quotient_complex(Z2_ACT, 1, range(4))
    x = EquivariantChain(2, Z2_ACT, INTEGERS, {((0, 0), (1, 0), (1, 1)): 3})
    cls = identify_class(boundary(x), qc)
    assert cls == [0, 0]


def test_identify_degree_zero_class():
    qc = build_quotient_complex(Z_ACT, 1, range(2))
    point = EquivariantChain(0, Z_ACT, INTEGERS, {((0,),): 1})
    assert identify_class(point, qc) in ([1], [-1])


def test_identify_wrong_way_image():
    pair = FlatPair(2, 1)
    sub = TranslationAction.tangential(pair)
    r = restrict_equivariance(kuhn_fundamental_cycle(2), sub, pair, 1)
    image = equivariant_wrong_way(r, WrongWayContext(pair, INTEGERS, perturb=True))
    qc = build_quotient_complex(Z_ACT, 1, range(3))
    assert identify_class(image, qc) in ([1], [-1])


def test_identify_rejects_non_cycle():
    qc = build_quotient_complex(Z2_ACT, 1, range(4))
    not_cycle = EquivariantChain(2, Z2_ACT, INTEGERS, {((0, 0), (1, 0), (1, 1)): 1})
    with pytest.raises(ValueError):
        identify_class(not_cycle, qc)


def test_identify_truncation_error():
    qc = build_quotient_complex(Z_ACT, 1, range(3))
    wide = EquivariantChain(1, Z_ACT, INTEGERS, {((0,), (2,)): 1})
    assert boundary(wide).is_zero()
    with pytest.raises(TruncationError):
        identify_class(wide, qc)


def test_identify_rejects_boundary_outside_cycle_lattice():
    # d_1 d_2 != 0: the one degree-2 column is not a degree-1 cycle.
    bases = {0: [((0,),)], 1: [((0,), (0,)), ((0,), (1,))], 2: [((0,), (0,), (0,))]}
    qc = QuotientComplex(
        action=Z_ACT, r_max=1, degrees=(0, 1, 2), bases=bases,
        matrices={1: _sparse([[0, 1]]).transposed(), 2: _sparse([[0], [1]]).transposed()})
    assert not qc.reduction.composes_to_zero()
    cycle = EquivariantChain(1, Z_ACT, INTEGERS, {((0,), (0,)): 1})
    with pytest.raises(ValueError, match="do not compose to zero; not a complex"):
        identify_class(cycle, qc)


def _seeded_cycle(qc, n, d, rng):
    """An integer combination of the coordinate-subtorus cycles of degree d
    plus the boundary of a random (d+1)-chain of the complex."""
    z = EquivariantChain(d, qc.action, INTEGERS, {})
    for axes in itertools.combinations(range(n), d):
        z = z + staircase_cycle(n, axes).scale(rng.randint(-3, 3))
    terms = {rng.choice(qc.bases[d + 1]): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
    return z + boundary(EquivariantChain(d + 1, qc.action, INTEGERS, terms))


@pytest.mark.parametrize("n, r_max, d", [
    (1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 0), (2, 1, 1), (2, 1, 2),
    # Non-unit lows: the reduction of delta_1 = d_2^T sets aside 3 columns
    # on T^2 at r_max 2, and 1 (2) on T^1 at r_max 2 (3); in degree 2 the
    # set-aside coboundaries become relations.
    (1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 3, 0), (1, 3, 1), (1, 3, 2), (2, 2, 1),
])
def test_identify_class_matches_dense_oracle(n, r_max, d):
    # Every cycle after the first reads the cocycles the complex cached for
    # degree d; a freshly built complex must give the same coordinates.
    def build():
        return build_quotient_complex(TranslationAction.standard(n), r_max, range(d + 2))

    qc = build()
    rng = random.Random(100 * n + 10 * r_max + d)
    nonzero = 0
    for _ in range(12):
        z = _seeded_cycle(qc, n, d, rng)
        coords = identify_class(z, qc)
        assert coords == dense_class_oracle(z, qc)
        assert coords == identify_class(z, build())
        nonzero += any(coords)
    assert nonzero >= (6 if d <= n else 0)


@pytest.fixture(scope="module")
def torus3():
    return build_quotient_complex(TranslationAction.standard(3), 1, range(5))


@pytest.mark.parametrize("n, r_max, d", [(2, 2, 2), (3, 1, 1), (3, 1, 2), (3, 1, 3)])
def test_identify_class_is_a_basis_where_the_oracle_cannot_run(n, r_max, d, torus3):
    # Too large for the dense oracle (4,225 tuples in degree 3 of T^2 at
    # r_max 2, 29,791 in degree 4 of T^3).  A linear map that kills
    # boundaries and sends the coordinate subtori to a unimodular matrix is
    # a basis of H_d.
    qc = torus3 if n == 3 else build_quotient_complex(
        TranslationAction.standard(n), r_max, range(d + 2))
    gens = [staircase_cycle(n, axes) for axes in itertools.combinations(range(n), d)]
    images = [identify_class(g, qc) for g in gens]
    assert abs(det_oracle(images)) == 1
    rng = random.Random(n + d)
    terms = {rng.choice(qc.bases[d + 1]): rng.randint(-3, 3) for _ in range(6)}
    x = EquivariantChain(d + 1, qc.action, INTEGERS, terms)
    assert identify_class(boundary(x), qc) == [0] * len(gens)
    weights = [rng.randint(-4, 4) for _ in gens]
    z = boundary(x)
    for g, w in zip(gens, weights):
        z = z + g.scale(w)
    assert identify_class(z, qc) == [sum(w * row[i] for w, row in zip(weights, images))
                                     for i in range(len(gens))]


def test_class_coordinates_on_random_complexes():
    # Hand-made complexes with torsion and non-unit lows: on a basis of the
    # cycles the coordinates are onto Z^betti, and boundaries read zero.
    rng = random.Random(15)
    free = torsion = 0
    for _ in range(40):
        boundaries = _random_chain_complex(rng)
        want = _dense_homology_oracle(boundaries)
        reduction = _complex_of(boundaries).reduction
        for k, betti, factors in want:
            torsion += bool(factors)
            upper = reduction.coboundaries[k + 1].transposed()
            dim = upper.nrows
            cycles = kernel_basis(boundaries[k - 1]) if k else [
                [int(i == j) for i in range(dim)] for j in range(dim)]
            coords = [reduction.class_coordinates(k, dict(enumerate(c))) for c in cycles]
            assert all(len(row) == betti for row in coords)
            if betti:
                assert invariant_factors(coords) == [1] * betti
                free += 1
            for col in upper.cols:
                assert reduction.class_coordinates(k, col) == [0] * betti
    assert free >= 25 and torsion >= 10


@pytest.mark.parametrize("n, r_max", [(1, 2), (1, 3), (2, 2)])
def test_class_coordinates_do_not_depend_on_call_order(n, r_max):
    # Classes of every degree read before homology (top degree first), after
    # it (bottom degree first), and each degree on a complex of its own: the
    # shared reductions give the same coordinates whichever made them.
    def build():
        return build_quotient_complex(TranslationAction.standard(n), r_max, range(n + 2))

    rng = random.Random(10 * n + r_max)
    before, after = build(), build()
    cycles = {d: [_seeded_cycle(before, n, d, rng) for _ in range(6)] for d in range(n + 1)}
    first = {d: [identify_class(z, before) for z in cycles[d]] for d in reversed(range(n + 1))}
    homology = snf_homology(before)
    assert snf_homology(after) == homology
    assert {d: [identify_class(z, after) for z in cycles[d]] for d in range(n + 1)} == first
    for d in range(n + 1):
        fresh = build()
        assert [identify_class(z, fresh) for z in cycles[d]] == first[d]
    assert any(any(coords) for row in first.values() for coords in row)


def test_random_complex_coordinates_do_not_depend_on_call_order():
    rng = random.Random(16)
    compared = 0
    for _ in range(30):
        boundaries = _random_chain_complex(rng)
        degrees = range(len(boundaries))
        dim = len(boundaries[0])
        cycles = {k: kernel_basis(boundaries[k - 1]) if k else
                  [[int(i == j) for i in range(dim)] for j in range(dim)] for k in degrees}

        def read(reduction, order):
            return {k: [reduction.class_coordinates(k, dict(enumerate(c))) for c in cycles[k]]
                    for k in order}

        before, after = _complex_of(boundaries).reduction, _complex_of(boundaries).reduction
        first = read(before, reversed(degrees))
        assert before.ranks == after.ranks
        assert read(after, degrees) == first
        assert {k: read(_complex_of(boundaries).reduction, [k])[k] for k in degrees} == first
        compared += sum(map(len, first.values()))
    assert compared >= 100


@pytest.mark.parametrize("n, r_max", [(1, 2), (2, 2)])
def test_reading_a_complex_leaves_its_coboundaries_unchanged(n, r_max):
    # Homology and a class in every degree, in both orders, at non-unit lows.
    for homology_first in (True, False):
        qc = build_quotient_complex(TranslationAction.standard(n), r_max, range(n + 2))
        saved = copy.deepcopy(qc.matrices)
        if homology_first:
            snf_homology(qc)
        for d in range(n + 1):
            identify_class(staircase_cycle(n, range(d)), qc)
        snf_homology(qc)
        assert {d: vars(m) for d, m in qc.matrices.items()} == {
            d: vars(m) for d, m in saved.items()}


def test_identify_class_runs_no_dense_smith_form_at_unit_lows(monkeypatch, torus3):
    # At r_max 1 every low is a unit, so the class is read off the sparse
    # coboundary reduction alone.
    calls = [0]
    original = intlinalg.snf_with_transforms

    def counted(a):
        calls[0] += 1
        return original(a)

    monkeypatch.setattr(intlinalg, "snf_with_transforms", counted)
    torus2 = build_quotient_complex(Z2_ACT, 1, range(4))
    # A copy of torus3 shares its matrices but reduces them afresh.
    for n, qc in ((2, torus2), (3, dataclasses.replace(torus3))):
        for d in range(n + 1):
            for axes in itertools.combinations(range(n), d):
                assert len(identify_class(staircase_cycle(n, axes), qc)) == math.comb(n, d)
    assert calls[0] == 0


def _count_reduction_work(monkeypatch):
    """Counts of d d = 0 checks, column reductions, matrices constructed and
    transposes per matrix."""
    counts = {"checks": 0, "reductions": 0, "matrices": 0}
    transposes = collections.Counter()
    check, reduce_columns, transposed, init = (CoboundaryReduction.composes_to_zero,
                                               intlinalg._reduce_columns,
                                               SparseIntMatrix.transposed,
                                               SparseIntMatrix.__init__)

    def counted_check(self):
        counts["checks"] += 1
        return check(self)

    def counted_reduce(*args, **kwargs):
        counts["reductions"] += 1
        return reduce_columns(*args, **kwargs)

    def counted_transpose(self):
        transposes[id(self)] += 1
        return transposed(self)

    def counted_init(self, nrows, ncols):
        counts["matrices"] += 1
        init(self, nrows, ncols)

    monkeypatch.setattr(CoboundaryReduction, "composes_to_zero", counted_check)
    monkeypatch.setattr(intlinalg, "_reduce_columns", counted_reduce)
    monkeypatch.setattr(SparseIntMatrix, "transposed", counted_transpose)
    monkeypatch.setattr(SparseIntMatrix, "__init__", counted_init)
    return counts, transposes


def test_build_fills_coboundaries_without_constructor_entries_or_transposes(monkeypatch):
    # The constructor takes a shape only: the build makes one empty matrix
    # per coboundary and writes its columns itself, and nothing is
    # constructed or transposed from the build through homology to a class.
    counts, transposes = _count_reduction_work(monkeypatch)
    qc = build_quotient_complex(Z2_ACT, 1, range(4))
    assert counts["matrices"] == len(qc.matrices) == 3
    assert snf_homology(qc).betti() == {0: 1, 1: 2, 2: 1}
    assert identify_class(kuhn_fundamental_cycle(2), qc) in ([1], [-1])
    # Three reductions for homology; the cocycles of degree 2 redo the top
    # one with its transform V, which keeps d_2^T's.
    assert counts == {"checks": 1, "reductions": 4, "matrices": 3}
    assert not transposes
    # The spies do see what goes through them.
    _sparse([[1, 0], [0, -2]]).transposed()
    assert counts["matrices"] == 5 and sum(transposes.values()) == 1


def test_one_reduction_serves_every_class_of_a_complex(monkeypatch, torus3):
    # The six coordinate classes of H_1 and H_2 of T^3, one by one, then
    # homology: one d d = 0 check and one reduction per coboundary (d_1^T
    # and d_2^T with V for degree 1, d_3^T with V for degree 2, d_4^T for
    # the ranks), where the classes and the ranks used to pay their own.
    counts, transposes = _count_reduction_work(monkeypatch)
    qc = dataclasses.replace(torus3)
    for d in (1, 2):
        images = [identify_class(staircase_cycle(3, axes), qc)
                  for axes in itertools.combinations(range(3), d)]
        assert abs(det_oracle(images)) == 1
    assert counts == {"checks": 1, "reductions": 3, "matrices": 0}
    assert snf_homology(qc).betti() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert counts == {"checks": 1, "reductions": 4, "matrices": 0}
    assert not transposes


def test_homology_then_class_checks_the_complex_once(monkeypatch, torus3):
    counts, transposes = _count_reduction_work(monkeypatch)
    qc = dataclasses.replace(torus3)
    assert snf_homology(qc).betti() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert identify_class(kuhn_fundamental_cycle(3), qc) in ([1], [-1])
    assert counts["checks"] == 1
    assert not transposes


def test_reduction_is_not_part_of_the_complex_value():
    # Built lazily and held by the complex, but neither a constructor
    # argument nor part of its repr or equality.
    qc = build_quotient_complex(Z_ACT, 1, range(3))
    fresh = dataclasses.replace(qc)
    assert "reduction" not in {f.name for f in dataclasses.fields(qc)}
    assert snf_homology(qc).betti() == {0: 1, 1: 1}
    assert qc.reduction is qc.reduction
    assert qc == fresh and repr(qc) == repr(fresh)
    assert "CoboundaryReduction" not in repr(qc)


def test_homology_report_json():
    qc = build_quotient_complex(Z_ACT, 1, range(3))
    report = snf_homology(qc)
    data = report.to_json()
    assert {"degree": 0, "betti": 1, "torsion": []} in data
    assert {"degree": 1, "betti": 1, "torsion": []} in data
