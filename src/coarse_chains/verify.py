"""Deterministic invariant battery behind the `verify` subcommand.

Every check runs from a fixed seed and reports one pass/fail line, so two
consecutive runs produce byte-identical reports.  The three bundled
mutations each corrupt one computation (the orientation sign of the Thom
value, the (-1)^q factor of the boundary identity, one stored coboundary
transposed) and exist to prove the battery actually bites; a clean build
passes everything.

The acceptance criteria call the same `check_*` functions at larger sizes.
Each returns (passed, detail), the two wrong-way checks a count as well.
"""

from __future__ import annotations

import contextlib
import random
from typing import Callable, Iterator

from . import equivariant as _equivariant_mod
from . import geometry as _geometry_mod
from . import wrongway as _wrongway_mod
from .chains import UfChain, boundary, uf_norm
from .coeffs import INTEGERS, INTEGERS_MOD_2, RATIONALS, CoefficientGroup
from .equivariant import (
    TranslationAction,
    build_quotient_complex,
    equivariant_wrong_way,
    identify_class,
    kuhn_fundamental_cycle,
    restrict_equivariance,
    snf_homology,
)
from .geometry import DegeneratePosition, FlatPair, cocycle_check, fill
from .sampling import GENERAL_POSITION_ATTEMPTS, general_position_chain, random_chain
from .spaces import LatticeSpace
from .wrongway import WrongWayContext, cap_thom, wrong_way

MUTATIONS = ("thom-sign", "drop-q-sign", "transpose-boundary")

PAIR_SET = ((2, 1), (3, 1), (3, 2), (4, 2))

GROUPS: tuple[CoefficientGroup, ...] = (INTEGERS, INTEGERS_MOD_2, RATIONALS)


@contextlib.contextmanager
def _patched_thom_sign() -> Iterator[None]:
    """Injects the classic bug: the determinant sign is dropped."""
    original = _geometry_mod.thom_crossing

    def buggy(simplex, pair, perturb=False):
        return abs(original(simplex, pair, perturb))

    modules = (_geometry_mod, _wrongway_mod, _equivariant_mod)
    for module in modules:
        module.thom_crossing = buggy
    try:
        yield
    finally:
        for module in modules:
            module.thom_crossing = original


def check_boundary_squared(seed: int, chains_per_case: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    total = 0
    for group in GROUPS:
        for degree in range(2, 5):
            for dim in (1, 2, 3):
                space = LatticeSpace(dim)
                for _ in range(chains_per_case):
                    c = random_chain(rng, space, degree, group)
                    if not boundary(boundary(c)).is_zero():
                        return False, f"dd != 0 on {c!r}"
                    total += 1
    return True, f"dd = 0 on {total} random chains"


def check_fill_boundary(seed: int, count: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 4)
        degree = rng.randint(1, 4)
        tup = tuple(tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(degree + 1))
        faces = [(sign, f.vertices) for sign, f in fill(tup).faces()]
        expected = [((-1) ** j, fill(tup[:j] + tup[j + 1:]).vertices) for j in range(degree + 1)]
        if faces != expected:
            return False, f"face mismatch on {tup}"
    return True, f"boundary of fill matches fill of boundary on {count} tuples"


def check_cocycle(seed: int, per_pair: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    checked = 0
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        for _ in range(per_pair):
            for _ in range(GENERAL_POSITION_ATTEMPTS):
                verts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(q + 2)]
                try:
                    value = cocycle_check(fill(verts), pair)
                except DegeneratePosition:
                    continue
                break
            else:
                raise ValueError(f"no general-position simplex for the pair (n={n}, q={q}) "
                                 f"in {GENERAL_POSITION_ATTEMPTS} attempts")
            if value != 0:
                return False, f"cocycle defect {value} at {verts} (n={n}, q={q})"
            checked += 1
    return True, f"Thom cocycle vanishes on {checked} general-position simplices"


def check_sign_identity(seed: int, per_case: int, drop_sign: bool) -> tuple[bool, str, int]:
    """Also returns how many chains had a nonzero wrong-way image of c or dc."""
    rng = random.Random(seed)
    checked = nontrivial = 0
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS)
        factor = 1 if drop_sign or q % 2 == 0 else -1
        for degree in (q + 1, q + 2):
            for _ in range(per_case):
                c, residual, _ = general_position_chain(rng, pair, degree, ctx)
                image, boundary_image = wrong_way(c, ctx), wrong_way(boundary(c), ctx)
                where = f"(n={n}, q={q}, k={degree})"
                if not (boundary(image) - boundary_image.scale(factor)).is_zero():
                    return False, f"residual nonzero {where}", nontrivial
                if not residual.is_zero():
                    return False, f"library residual nonzero {where}", nontrivial
                checked += 1
                nontrivial += not (image.is_zero() and boundary_image.is_zero())
    return True, f"boundary identity exact on {checked} chains", nontrivial


def check_support_locality(seed: int, count: int) -> tuple[bool, str, int]:
    """Also returns how many chains had a nonzero cap."""
    rng = random.Random(seed)
    checked = nontrivial = 0
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS)
        for _ in range(count):
            c, _, _ = general_position_chain(rng, pair, q + 1, ctx)
            radius = c.propagation()
            capped = cap_thom(c, ctx)
            if any(pair.flat_distance(p) > radius for tup in capped.terms for p in tup):
                return False, f"support escaped the {radius}-neighbourhood", nontrivial
            # Capped tuples are sub-tuples and the projection is 1-Lipschitz.
            if wrong_way(c, ctx).propagation() > radius:
                return False, f"wrong-way propagation above {radius} (n={n}, q={q})", nontrivial
            checked += 1
            nontrivial += bool(capped.terms)
    return True, f"capped support within propagation of the flat on {checked} chains", nontrivial


def check_norm_growth(seed: int, count: int) -> tuple[bool, str]:
    # Suite chains keep their terms tangentially separated so no two terms
    # land on the same projected tuple; for such chains the map is a
    # per-term contraction in every weighted norm.
    rng = random.Random(seed)
    checked = 0
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS, perturb=True)
        space = LatticeSpace(n)
        for _ in range(count):
            terms = {}
            for i in range(4):
                base = [0] * n
                base[0] = 10 * i
                tup = tuple(tuple(b + rng.randint(-2, 2) for b in base) for _ in range(q + 2))
                terms[tup] = rng.choice([-3, -2, -1, 1, 2, 3])
            c = UfChain(q + 1, space, INTEGERS, terms)
            w = wrong_way(c, ctx)
            for power in range(4):
                if uf_norm(w, power) > uf_norm(c, power):
                    return False, f"norm grew at weight {power} (n={n}, q={q})"
            checked += 1
    return True, f"weighted norms non-increasing on {checked} separated chains"


def check_snf_cross(transpose_mutation: bool) -> tuple[bool, str]:
    expected = {1: {0: 1, 1: 1}, 2: {0: 1, 1: 2, 2: 1}}
    for n, betti_want in expected.items():
        qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2))
        if transpose_mutation:
            top = max(qc.matrices)
            qc.matrices[top] = qc.matrices[top].transposed()
        try:
            report = snf_homology(qc)
            # Second route: the boundaries, uncleared, not the coboundaries snf_homology reduces.
            ranks = {d: m.transposed().rank_and_factors()[0] for d, m in qc.matrices.items()}
        except ValueError as exc:
            return False, f"T^{n}: {exc}"
        betti = report.betti()
        betti_t = {d: qc.basis_size(d) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in betti}
        torsion = {e.degree: list(e.torsion) for e in report.entries}
        if betti != betti_want or betti_t != betti_want:
            return False, f"T^{n}: betti {betti} / transposed {betti_t}, want {betti_want}"
        if any(torsion.values()):
            return False, f"T^{n}: unexpected torsion {torsion}"
    return True, "quotient betti agree with the transposed-matrix run for T^1, T^2"


def check_torus_homology() -> tuple[bool, str]:
    want = {1: [1, 1], 2: [1, 2, 1], 3: [1, 3, 3, 1]}
    for n, betti_want in want.items():
        qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2))
        report = snf_homology(qc)
        betti = [report.betti()[d] for d in range(n + 1)]
        torsion = [t for e in report.entries for t in e.torsion]
        if betti != betti_want or torsion:
            return False, f"T^{n}: betti {betti}, torsion {torsion}"
    return True, "torus betti (1,1), (1,2,1), (1,3,3,1) torsion-free"


def _transport(cycle, pair: FlatPair) -> list[int]:
    """Class of the wrong-way image of an equivariant cycle in the flat's torus."""
    sub = TranslationAction.tangential(pair)
    restricted = restrict_equivariance(cycle, sub, pair, cycle.propagation())
    image = equivariant_wrong_way(restricted, WrongWayContext(pair, INTEGERS, perturb=True))
    qc = build_quotient_complex(
        TranslationAction.standard(pair.flat_dim), 1, range(pair.flat_dim + 2))
    return identify_class(image, qc)


def check_transport() -> tuple[bool, str]:
    results = {}
    for n, q in ((2, 1), (3, 1), (3, 2)):
        coords = {}
        for orientation in (1, -1):
            cls = _transport(kuhn_fundamental_cycle(n), FlatPair(n, q, orientation))
            if len(cls) != 1 or cls[0] not in (1, -1):
                return False, f"(n,q)=({n},{q}): class {cls} is not a generator"
            coords[orientation] = cls[0]
        if coords[1] != -coords[-1]:
            return False, f"(n,q)=({n},{q}): orientation flip did not flip the sign"
        results[(n, q)] = coords[1]
    detail = ", ".join(f"T^{n}->T^{n - q}: {sign:+d}" for (n, q), sign in results.items())
    return True, f"fundamental class transported to a generator ({detail})"


def check_filling_independence() -> tuple[bool, str]:
    # An alternative equally valid chain representative of the fundamental
    # class (the cycle pushed through a flat-preserving unimodular shear)
    # must land in the same class, and in its negative once the flat's
    # orientation flips.  Chain-level outputs differ.
    pair = FlatPair(2, 1)
    cycle = kuhn_fundamental_cycle(2)

    def shear(p):  # (x, y) -> (x + 2y, y): unimodular, preserves the flat
        return (p[0] + 2 * p[1], p[1])

    base = _transport(cycle, pair)
    sheared_terms = [
        (tuple(shear(p) for p in tup), coeff) for tup, coeff in cycle.terms.items()
    ]
    sheared = type(cycle)(cycle.degree, cycle.action, cycle.group, sheared_terms)
    other = _transport(sheared, pair)
    if base != other:
        return False, f"sheared representative changed the class: {base} vs {other}"
    flipped = _transport(sheared, FlatPair(2, 1, -1))
    if flipped != [-x for x in other]:
        return False, f"orientation flip did not negate the sheared class: {other} vs {flipped}"
    return True, f"class {base} stable under a sheared representative"


def run_verify(mutation: str | None = None) -> dict:
    """Run the battery; returns a canonical report dict."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; choose from {MUTATIONS}")

    checks: list[tuple[str, Callable[[], tuple]]] = [
        ("boundary-squared-zero", lambda: check_boundary_squared(101, 30)),
        ("fill-boundary-compat", lambda: check_fill_boundary(202, 300)),
        ("thom-cocycle", lambda: check_cocycle(303, 100)),
        ("sign-identity", lambda: check_sign_identity(
            404, 40, drop_sign=(mutation == "drop-q-sign"))),
        ("support-locality", lambda: check_support_locality(505, 40)),
        ("norm-growth", lambda: check_norm_growth(606, 40)),
        ("snf-cross-check", lambda: check_snf_cross(
            transpose_mutation=(mutation == "transpose-boundary"))),
        ("torus-homology", check_torus_homology),
        ("class-transport", check_transport),
        ("filling-independence", check_filling_independence),
    ]

    patch = _patched_thom_sign() if mutation == "thom-sign" else contextlib.nullcontext()
    results = []
    with patch:
        for name, fn in checks:
            try:
                passed, detail, *_ = fn()
            except Exception as exc:  # a crash counts as a failure, not an abort
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            results.append({"name": name, "status": "pass" if passed else "fail",
                            "detail": detail})
    return {
        "suite": "coarse-chains-verify",
        "mutation": mutation,
        "checks": results,
        "passed": all(r["status"] == "pass" for r in results),
    }
