"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Every expected value here is either trivially forced, frozen from an
independent oracle, or a classical torus invariant; nothing is tuned to
the implementation.  Runtime budgets are asserted where stated.
Criteria 1-8 run the `verify` battery's own checks at larger sizes.
"""

import random
import time
from pathlib import Path

from coarse_chains import (
    INTEGERS,
    FlatPair,
    LatticeSpace,
    UfChain,
    WrongWayContext,
    uf_norm,
    wrong_way,
)
from coarse_chains.sampling import general_position_chain
from coarse_chains.scenarios import canonical_dumps
from coarse_chains.verify import (
    MUTATIONS,
    PAIR_SET,
    check_boundary_squared,
    check_cocycle,
    check_fill_boundary,
    check_norm_growth,
    check_sign_identity,
    check_support_locality,
    check_torus_homology,
    check_transport,
    run_verify,
)


def _criterion(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def _timed(check, *args):
    started = time.perf_counter()
    result = check(*args)
    return result, time.perf_counter() - started


def test_criterion_1_chain_complex_axioms():
    # 334 chains per (group, degree 2..4, dimension 1..3): 9,018 chains.
    (ok, detail), elapsed = _timed(check_boundary_squared, 1001, 334)
    _criterion(1, f"{detail} over Z, Z/2, Q [{elapsed:.1f}s < 5s]", ok and elapsed < 5.0)


def test_criterion_2_filling_compatibility():
    (ok, detail), elapsed = _timed(check_fill_boundary, 1002, 1000)
    _criterion(2, f"{detail} [{elapsed:.1f}s < 5s]", ok and elapsed < 5.0)


def test_criterion_3_thom_cocycle():
    (ok, detail), elapsed = _timed(check_cocycle, 1003, 200)
    _criterion(3, f"{detail}, 200 per (n,q) in {PAIR_SET} [{elapsed:.1f}s < 10s]",
               ok and elapsed < 10.0)


def test_criterion_4_sign_identity():
    # A chain whose image and boundary image both vanish checks nothing;
    # at least a fifth of the 1,200 must not.
    (ok, detail, nontrivial), elapsed = _timed(check_sign_identity, 1004, 150, False)
    _criterion(4, f"{detail}, {nontrivial} with a nonzero image [{elapsed:.1f}s < 60s]",
               ok and nontrivial >= 240 and elapsed < 60.0)


def test_criterion_5_support_locality():
    # At least a fifth of the 200 chains must have a nonzero cap.
    ok, detail, nontrivial = check_support_locality(1005, 50)
    _criterion(5, f"{detail}, {nontrivial} with a nonzero cap; wrong-way support is "
                  f"the projection of the capped tuples", ok and nontrivial >= 40)


def test_criterion_6_torus_homology():
    (ok, detail), elapsed = _timed(check_torus_homology)
    _criterion(6, f"{detail} at spread 1 [{elapsed:.1f}s < 120s]", ok and elapsed < 120.0)


def test_criterion_7_fundamental_class_transport():
    started = time.perf_counter()
    first = check_transport()
    second = check_transport()
    elapsed = time.perf_counter() - started
    ok, detail = first
    _criterion(7, f"{detail}, stable across runs and orientation-covariant "
                  f"[{elapsed:.1f}s < 120s]", ok and first == second and elapsed < 120.0)


def test_criterion_8_norm_continuity_shadow():
    ok, detail = check_norm_growth(1008, 50)
    rng = random.Random(1008)
    for n, q in PAIR_SET:
        pair = FlatPair(n, q)
        ctx = WrongWayContext(pair, INTEGERS)
        for _ in range(50):
            # single-term chains: contraction holds without any separation
            c, _, _ = general_position_chain(rng, pair, q, ctx)
            single = UfChain(q, LatticeSpace(n), INTEGERS,
                             dict([next(iter(c.terms.items()))]))
            w = wrong_way(single, ctx)
            for power in range(4):
                if uf_norm(w, power) > uf_norm(single, power):
                    ok = False
    _criterion(8, f"{detail} and 200 single-term chains (n <= 4)", ok)


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
