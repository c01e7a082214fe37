"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Every expected value here is either trivially forced, frozen from an
independent oracle, or a classical torus invariant; nothing is tuned to
the implementation.  Runtime budgets are asserted where stated.
"""

import random
import time
from pathlib import Path

from coarse_chains import (
    INTEGERS,
    DegeneratePosition,
    FlatPair,
    LatticeSpace,
    TranslationAction,
    UfChain,
    WrongWayContext,
    boundary,
    build_quotient_complex,
    cap_thom,
    cocycle_check,
    equivariant_wrong_way,
    fill,
    identify_class,
    kuhn_fundamental_cycle,
    restrict_equivariance,
    sign_identity_residual,
    snf_homology,
    uf_norm,
    wrong_way,
)
from coarse_chains.sampling import general_position_chain
from coarse_chains.scenarios import canonical_dumps
from coarse_chains.verify import MUTATIONS, run_verify

from conftest import ALL_GROUPS, PAIR_SET, random_chain


def _criterion(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def _separated_chain(rng, pair, degree):
    # Norm-suite chains: terms live in disjoint tangential blocks, so no two
    # terms can land on the same projected tuple.
    n = pair.ambient_dim
    terms = {}
    for i in range(4):
        base = [0] * n
        base[0] = 12 * i
        tup = tuple(
            tuple(b + rng.randint(-2, 2) for b in base) for _ in range(degree + 1)
        )
        terms[tup] = rng.choice([-3, -2, -1, 1, 2, 3])
    return UfChain(degree, LatticeSpace(n), INTEGERS, terms)


def test_criterion_1_chain_complex_axioms():
    started = time.perf_counter()
    rng = random.Random(1001)
    count_per_case = 1000
    ok = True
    for group in ALL_GROUPS:
        for degree in (1, 2, 3, 4):
            for _ in range(count_per_case):
                space = LatticeSpace(rng.choice([1, 2, 3]))
                c = random_chain(rng, space, degree, group, n_terms=3)
                if degree >= 2 and not boundary(boundary(c)).is_zero():
                    ok = False
                if degree == 1 and not boundary(c).degree == 0:
                    ok = False
    elapsed = time.perf_counter() - started
    _criterion(1, f"dd = 0 on {count_per_case} chains per (group, degree<=4) "
                  f"[{elapsed:.1f}s < 5s]", ok and elapsed < 5.0)


def test_criterion_2_filling_compatibility():
    started = time.perf_counter()
    rng = random.Random(1002)
    ok = True
    for _ in range(1000):
        dim = rng.randint(1, 4)
        degree = rng.randint(1, 4)
        tup = tuple(tuple(rng.randint(-6, 6) for _ in range(dim))
                    for _ in range(degree + 1))
        got = [(sign, f.vertices) for sign, f in fill(tup).faces()]
        want = [((-1) ** j, fill(tup[:j] + tup[j + 1:]).vertices)
                for j in range(degree + 1)]
        if got != want:
            ok = False
    elapsed = time.perf_counter() - started
    _criterion(2, f"boundary of filling = filling of boundary on 1000 tuples "
                  f"[{elapsed:.1f}s < 5s]", ok and elapsed < 5.0)


def test_criterion_3_thom_cocycle():
    started = time.perf_counter()
    rng = random.Random(1003)
    ok = True
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        done = 0
        while done < 200:
            verts = [tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(q + 2)]
            try:
                value = cocycle_check(fill(verts), pair)
            except DegeneratePosition:
                continue
            if value != 0:
                ok = False
            done += 1
    elapsed = time.perf_counter() - started
    _criterion(3, f"Thom cocycle vanishes on 200 simplices per (n,q) in "
                  f"{PAIR_SET} [{elapsed:.1f}s < 10s]", ok and elapsed < 10.0)


def test_criterion_4_sign_identity():
    started = time.perf_counter()
    rng = random.Random(1004)
    ok = True
    total = 0
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS)
        for degree in (q + 1, q + 2):
            for _ in range(150):
                c = general_position_chain(rng, pair, degree, ctx)
                if not sign_identity_residual(c, ctx).is_zero():
                    ok = False
                total += 1
    elapsed = time.perf_counter() - started
    _criterion(4, f"sign identity residual = 0 (zero chain) on {total} "
                  f"general-position chains [{elapsed:.1f}s < 60s]",
               ok and total >= 1000 and elapsed < 60.0)


def test_criterion_5_support_locality():
    rng = random.Random(1005)
    ok = True
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS)
        for _ in range(50):
            c = general_position_chain(rng, pair, q + 1, ctx)
            radius = c.propagation()
            capped = cap_thom(c, ctx)
            for tup in capped.terms:
                if any(pair.flat_distance(p) > radius for p in tup):
                    ok = False
            image = wrong_way(c, ctx)
            projected = {tuple(pair.tangential_part(p) for p in tup)
                         for tup in capped.terms}
            if not set(image.terms) <= projected:
                ok = False
    _criterion(5, "100% of wrong-way support is the projection of tuples "
                  "within propagation of the flat", ok)


def test_criterion_6_torus_homology():
    started = time.perf_counter()
    want = {1: [1, 1], 2: [1, 2, 1], 3: [1, 3, 3, 1]}
    ok = True
    for n, betti_want in want.items():
        qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2))
        report = snf_homology(qc)
        betti = [report.betti()[d] for d in range(n + 1)]
        torsion = [t for e in report.entries for t in e.torsion]
        if betti != betti_want or torsion:
            ok = False
    elapsed = time.perf_counter() - started
    _criterion(6, f"betti (1,1), (1,2,1), (1,3,3,1) torsion-free at spread 1 "
                  f"[{elapsed:.1f}s < 120s]", ok and elapsed < 120.0)


def _transport_sign(n, q, orientation):
    pair = FlatPair(n, q, orientation)
    cycle = kuhn_fundamental_cycle(n)
    sub = TranslationAction.tangential(pair)
    restricted = restrict_equivariance(cycle, sub, pair, cycle.propagation())
    image = equivariant_wrong_way(
        restricted, WrongWayContext(pair, INTEGERS, perturb=True))
    qc = build_quotient_complex(TranslationAction.standard(n - q), 1, range(n - q + 2))
    cls = identify_class(image, qc)
    assert len(cls) == 1
    return cls[0]


def test_criterion_7_fundamental_class_transport():
    started = time.perf_counter()
    ok = True
    signs = {}
    for n, q in ((2, 1), (3, 1), (3, 2)):
        plus = _transport_sign(n, q, 1)
        if plus not in (1, -1):
            ok = False
        if _transport_sign(n, q, 1) != plus:  # constant across runs
            ok = False
        if _transport_sign(n, q, -1) != -plus:  # orientation flip flips sign
            ok = False
        signs[(n, q)] = plus
    elapsed = time.perf_counter() - started
    _criterion(7, f"fundamental class maps to a generator, signs {signs}, "
                  f"stable and orientation-covariant [{elapsed:.1f}s < 120s]",
               ok and elapsed < 120.0)


def test_criterion_8_norm_continuity_shadow():
    rng = random.Random(1008)
    ok = True
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS, perturb=True)
        for _ in range(50):
            c = _separated_chain(rng, pair, q + 1)
            w = wrong_way(c, ctx)
            for power in range(4):
                if uf_norm(w, power) > uf_norm(c, power):
                    ok = False
        for _ in range(50):
            # single-term chains: contraction holds without any separation
            c = general_position_chain(rng, pair, q, WrongWayContext(pair, INTEGERS))
            single = UfChain(q, LatticeSpace(n), INTEGERS,
                             dict([next(iter(c.terms.items()))]))
            w = wrong_way(single, WrongWayContext(pair, INTEGERS))
            for power in range(4):
                if uf_norm(w, power) > uf_norm(single, power):
                    ok = False
    _criterion(8, "weighted norms (n <= 3) do not grow on the suite chains", ok)


def test_criterion_9_verify_determinism():
    first = canonical_dumps(run_verify())
    second = canonical_dumps(run_verify())
    golden = (Path(__file__).resolve().parent / "golden" / "verify.report.json").read_text()
    _criterion(9, "two consecutive verify runs are byte-identical, green and golden",
               first == second == golden and '"passed": true' in first)


def test_criterion_10_mutation_sensitivity():
    ok = True
    details = {}
    for mutation in MUTATIONS:
        report = run_verify(mutation=mutation)
        failures = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        details[mutation] = failures
        if report["passed"] or not failures:
            ok = False
    _criterion(10, f"each bundled mutation breaks the suite: {details}", ok)
