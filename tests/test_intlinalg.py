import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from coarse_chains import intlinalg
from coarse_chains.equivariant import TranslationAction, build_quotient_complex
from coarse_chains.intlinalg import (
    CoboundaryReduction,
    SmithSolver,
    SparseIntMatrix,
    adjugate,
    det,
    identity,
    invariant_factors,
    kernel_basis,
    mat_vec,
    pivot_columns,
    snf_with_transforms,
    solve_int,
)

from oracles import (
    det_oracle,
    frac_rank_oracle,
    int_solvable_oracle,
    mat_mul,
    pivot_columns_oracle,
    sparse_from_entries,
    sparse_is_zero,
    sparse_multiply,
    to_dense,
    transpose,
)


def _random_matrix(rng, m, n, lo=-6, hi=6, density=1.0):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def test_snf_decomposition_properties():
    rng = random.Random(1)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n)
        d, u, v = snf_with_transforms(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_oracle(u)) == 1
        assert abs(det_oracle(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


def test_rank_against_fraction_oracle():
    rng = random.Random(2)
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = _random_matrix(rng, m, n, density=rng.choice([0.4, 0.8, 1.0]))
        assert len(pivot_columns(a)) == frac_rank_oracle(a)
        scaled = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
        assert len(pivot_columns(scaled)) == frac_rank_oracle(scaled)


def test_pivot_columns_against_greedy_oracle():
    # Zero rows, repeated columns and low-rank products make skipped pivot
    # columns common; the first shapes are empty, wide and tall.
    rng = random.Random(21)
    shapes = [(0, 0), (1, 0), (3, 3), (2, 7), (7, 2), (5, 5)]
    for trial in range(300):
        m, n = shapes[trial] if trial < len(shapes) else (rng.randint(1, 7), rng.randint(1, 7))
        if trial % 5 == 4:
            r = rng.randint(1, min(m, n))
            a = mat_mul(_random_matrix(rng, m, r, -3, 3), _random_matrix(rng, r, n, -3, 3))
        else:
            a = _random_matrix(rng, m, n, -3, 3, density=rng.choice([0.0, 0.3, 0.7, 1.0]))
        if m > 1 and trial % 3 == 0:
            a[rng.randrange(m)] = [0] * n
        if n > 1 and trial % 4 == 0:
            j = rng.randrange(1, n)
            for row in a:
                row[j] = 2 * row[j - 1]
        if trial % 2:
            a = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in a]
        before = [row[:] for row in a]
        assert pivot_columns(a) == pivot_columns_oracle(a)
        assert a == before
    assert pivot_columns([[0, 0, 0], [0, 0, 0]]) == []
    assert pivot_columns([[0, 2, 4, 1], [0, 1, 2, 1]]) == [1, 3]
    assert pivot_columns([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]]) == [0]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_det_and_adjugate_against_fraction_oracle(size):
    rng = random.Random(40 + size)
    for trial in range(60):
        a = _random_matrix(rng, size, size, density=rng.choice([0.3, 0.7, 1.0]))
        if trial % 5 == 0 and size > 1:
            a[-1] = [x - y for x, y in zip(a[0], a[1])]  # singular
        if trial % 2:
            a = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
        before = [row[:] for row in a]
        assert det(a) == det_oracle(a)
        adj = adjugate(a)
        for i in range(size):
            for j in range(size):
                minor = [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i]
                assert adj[j][i] == (-1) ** (i + j) * det_oracle(minor)
        assert a == before


def test_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        got = invariant_factors(a)
        snf = smith_normal_form(sympy.Matrix(a))
        want = [abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0]
        # Both lists are in divisibility order, so they agree exactly.
        assert got == want


def test_invariant_factors_of_a_tall_matrix_keep_no_transform():
    # A set-aside core can have tens of thousands of rows and a handful of
    # columns; an m x m row transform alone would be 1200^2 list slots
    # (about 11.5 MB) here, the matrix and its working copy about 0.25 MB.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(7)
    a = [[rng.randint(-3, 3) * s for s in (2, 6, 6, 12)] for _ in range(1200)]
    snf = smith_normal_form(sympy.Matrix(a))
    want = [abs(int(snf[i, i])) for i in range(4) if snf[i, i] != 0]
    tracemalloc.start()
    try:
        got = invariant_factors(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == [2, 6, 6, 12]
    assert peak < 1_000_000


def test_kernel_basis_spans_kernel():
    rng = random.Random(4)
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n)
        basis = kernel_basis(a)
        assert len(basis) == n - len(pivot_columns(a))
        for col in basis:
            assert mat_vec(a, col) == [0] * m
        if basis:
            # integral combinations round-trip through solve_int
            coeffs = [rng.randint(-3, 3) for _ in basis]
            combo = [sum(c * col[i] for c, col in zip(coeffs, basis))
                     for i in range(n)]
            kmat = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
            w = solve_int(kmat, combo)
            assert w is not None
            assert mat_vec(kmat, w) == combo


def test_solve_int_round_trip():
    rng = random.Random(5)
    solved = 0
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x)
        got = solve_int(a, b)
        assert got is not None
        assert mat_vec(a, got) == b
        solved += 1
    assert solved == 100


def test_solve_int_detects_unsolvable():
    # 2x = 1 has no integral solution; x+y=1, x+y=2 is inconsistent.
    assert solve_int([[2]], [1]) is None
    assert solve_int([[1, 1], [1, 1]], [1, 2]) is None


def test_smith_solver_matches_fresh_solve_int():
    # One factorization answers many right-hand sides exactly as a fresh
    # solve_int does, dense or sparse, on rank-deficient and scaled matrices.
    rng = random.Random(11)
    seen = Counter()
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(m, n))
        if r:
            a = mat_mul(_random_matrix(rng, m, r, -3, 3), _random_matrix(rng, r, n, -3, 3))
        else:
            a = [[0] * n for _ in range(m)]
        scale = rng.choice([1, 1, 2, 3])
        a = [[scale * x for x in row] for row in a]
        seen["rank_deficient"] += frac_rank_oracle(a) < min(m, n)
        solver = SmithSolver(a)
        for kind in ("image", "scaled_down", "random"):
            x = [rng.randint(-4, 4) for _ in range(n)]
            if kind == "image":
                b = mat_vec(a, x)
            elif kind == "scaled_down":
                b = [v // scale for v in mat_vec(a, x)]
            else:
                b = [rng.randint(-6, 6) for _ in range(m)]
            got = solver.solve(b)
            assert got == solve_int(a, b)
            if got is None:
                seen["none"] += 1
                assert not int_solvable_oracle(a, b)
                seen["rational_only"] += frac_rank_oracle(a) == frac_rank_oracle(
                    [row + [v] for row, v in zip(a, b)])
            else:
                seen["solved"] += 1
                assert mat_vec(a, got) == b
            if kind == "image":
                assert got is not None
    assert seen["rank_deficient"] > 50
    assert seen["solved"] > 100 and seen["none"] > 100
    # some right-hand sides are solvable over Q but not over Z
    assert seen["rational_only"] > 10


def test_smith_solver_rejects_wrong_length():
    with pytest.raises(ValueError, match="right-hand side"):
        SmithSolver([[1, 0], [0, 1]]).solve([1])


def test_sparse_matches_dense():
    rng = random.Random(6)
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = _random_matrix(rng, m, n, lo=-4, hi=4, density=0.5)
        sparse = sparse_from_entries(
            m, n, [(i, j, a[i][j]) for i in range(m) for j in range(n) if a[i][j]])
        r, factors = sparse.rank_and_factors()
        assert r == frac_rank_oracle(a)
        assert factors == invariant_factors(a)


def test_sparse_multiply_matches_dense():
    rng = random.Random(7)
    for _ in range(40):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, k, density=0.6)
        b = _random_matrix(rng, k, n, density=0.6)
        sa = _sparse(a)
        sb = _sparse(b)
        assert to_dense(sparse_multiply(sa, sb)) == mat_mul(a, b)


def test_unit_pivot_reduction_keeps_torsion():
    # diag(2, 3) hidden behind unimodular noise still yields factors (1, 6)
    # or (2, 3) depending on basis; invariant factors are canonical.
    a = [[2, 0], [0, 3]]
    assert invariant_factors(a) == [1, 6]
    sparse = _sparse([[2, 0], [0, 3]])
    assert sparse.rank_and_factors() == (2, [1, 6])


def _sparse(a):
    return sparse_from_entries(len(a), len(a[0]) if a else 0,
                               [(i, j, x) for i, row in enumerate(a)
                                for j, x in enumerate(row) if x])


def _unimodular(rng, n, steps):
    u = identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    if n and rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return u


@pytest.fixture
def dense_cores(monkeypatch):
    """The dense cores rank_and_factors hands to the Smith routine."""
    seen = []

    def recording(a):
        seen.append([row[:] for row in a])
        return invariant_factors(a)

    monkeypatch.setattr(intlinalg, "invariant_factors", recording)
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_sparse_reduction_recovers_planted_invariant_factors(seed, dense_cores):
    # A = U D V with U, V unimodular has D's diagonal as invariant factors;
    # sorted draws from 1 | 2 | 6 | 12 form a divisibility chain.
    rng = random.Random(100 + seed)
    torsion = 0
    for _ in range(25):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        planted = sorted(rng.choice([1, 1, 2, 6, 12]) for _ in range(rng.randint(0, min(m, n))))
        d = [[planted[i] if i == j and i < len(planted) else 0 for j in range(n)]
             for i in range(m)]
        a = mat_mul(mat_mul(_unimodular(rng, m, 2 * m), d), _unimodular(rng, n, 2 * n))
        # Empty rows and columns at random places.
        for _ in range(rng.randint(0, 2)):
            a.insert(rng.randint(0, len(a)), [0] * len(a[0]))
        for _ in range(rng.randint(0, 2)):
            j = rng.randint(0, len(a[0]))
            a = [row[:j] + [0] + row[j:] for row in a]
        r, factors = _sparse(a).rank_and_factors()
        assert (r, factors) == (len(planted), planted)
        assert factors == invariant_factors(a)
        assert r == frac_rank_oracle(a)
        torsion += any(x > 1 for x in planted)
    assert torsion >= 10
    assert dense_cores, "no case reached the dense core"


@pytest.mark.parametrize("a, want, cores", [
    # Column 1 keeps low entry 2 and is cleared on pivot row 0: core [[2]].
    ([[1, 1], [0, 2]], (2, [1, 2]), [[[2]]]),
    # Clearing row 1 moves -3 into non-pivot row 0; without it the core
    # would read [[0], [2]] and give the factor 2.
    ([[3, 0], [1, 1], [0, 2]], (2, [1, 1]), [[[-3], [2]]]),
    # Reducing column 1 against the pivot with low 1 leaves low entry -2.
    ([[1, 1], [1, 3]], (2, [1, 2]), [[[-2]]]),
    # Column 0 is set aside, then cleared to zero by the later pivot.
    ([[2, 1]], (1, [1]), []),
    # Column 1 reduces to zero: rank one, no core.
    ([[1, 1], [1, 1]], (1, [1]), []),
])
def test_sparse_reduction_hand_cases(a, want, cores, dense_cores):
    assert _sparse(a).rank_and_factors() == want
    assert dense_cores == cores
    assert want == (frac_rank_oracle(a), invariant_factors(a))


def _two_coboundaries(rng):
    """delta_0 and delta_1 of a random complex C_2 -> C_1 -> C_0: a random
    wide d_1, and d_2 a kernel basis of d_1 times a random matrix, so that
    d_1 d_2 = 0 and the image of d_2 is a sublattice (non-unit lows)."""
    rows = rng.randint(1, 4)
    d1 = _random_matrix(rng, rows, rows + rng.randint(1, 3), lo=-2, hi=2, density=0.6)
    kernel = transpose(kernel_basis(d1))
    mix = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(rng.randint(1, 4))]
           for _ in kernel[0]]
    d2 = mat_mul(kernel, mix)
    return {1: _sparse(transpose(d1)), 2: _sparse(transpose(d2))}, (d1, d2)


def test_sparse_reduction_leaves_the_matrix_unchanged(dense_cores, monkeypatch):
    # Uncleared, and cleared as CoboundaryReduction reduces a complex, its
    # ranks and cocycles read in either order; the entries up to 3 leave
    # non-unit lows, and the set-aside columns that are then reduced must
    # be copies.
    rng = random.Random(11)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), lo=-3, hi=3, density=0.5)
        sparse = _sparse(a)
        cols = [dict(col) for col in sparse.cols]
        sparse.rank_and_factors()
        assert sparse.cols == cols
    cleared = []
    original = intlinalg._reduce_columns

    def spy(cols, skip=(), transform=False):
        cleared.append(len(skip))
        return original(cols, skip, transform)

    monkeypatch.setattr(intlinalg, "_reduce_columns", spy)
    for trial in range(30):
        coboundaries, boundaries = _two_coboundaries(rng)
        cols = {d: [dict(col) for col in m.cols] for d, m in coboundaries.items()}
        reduction = CoboundaryReduction(coboundaries)
        if trial % 2:
            reduction.class_coordinates(1, {})
            reduction.class_coordinates(0, {})
        seen = len(dense_cores)
        ranks = reduction.ranks
        cores = dense_cores[seen:]
        reduction.class_coordinates(1, {})
        assert {d: m.cols for d, m in coboundaries.items()} == cols
        assert ranks == {k + 1: (frac_rank_oracle(b), invariant_factors(b))
                         for k, b in enumerate(boundaries)}
        # The stored reductions are as made, and ranks read off those that
        # carry V hand the same dense cores to the Smith routine.
        fresh = CoboundaryReduction(coboundaries)
        for d, done in reduction._reduced.items():
            assert fresh._reduction(d, done[2] is not None) == done
        seen = len(dense_cores)
        assert CoboundaryReduction(coboundaries).ranks == ranks
        assert dense_cores[seen:] == cores
    assert sum(map(bool, cleared)) >= 10
    assert len(dense_cores) >= 10, "too few non-unit lows reached the dense core"


def test_sparse_reduction_skips_cleared_columns_and_reports_unit_lows(dense_cores):
    # delta_0 = (0 1 1)^T has the unit low 2, so column 2 of delta_1 is
    # cleared: it is minus column 1, which keeps the non-unit low 2 at row 1.
    delta0 = _sparse([[0], [1], [1]])
    delta1 = _sparse([[1, 1, -1], [0, 2, -2]])
    reduction = CoboundaryReduction({1: delta0, 2: delta1})
    assert reduction.ranks == {1: (1, [1]), 2: (2, [1, 2])}
    assert dense_cores == [[[2]]]
    # Nothing reads the top reduction again once the ranks have read it.
    assert list(reduction._reduced) == [1]
    # The stored reductions: unit pivots by low, and the set-aside columns.
    assert list(reduction._reduction(1)[0]) == [2]
    pivots, aside, _ = reduction._reduction(2)
    assert list(pivots) == [0] and [j for j, _ in aside] == [1]
    # With no argument, rank_and_factors reduces every column of its own.
    assert delta1.rank_and_factors() == (2, [1, 2])
    assert dense_cores == [[[2]], [[2, -2]]]


def test_sparse_entries_summing_to_zero_leave_no_key():
    # The oracles' entry constructor; the package's matrices are written by column.
    sparse = sparse_from_entries(2, 3, [(0, 1, 2), (1, 2, 4), (0, 1, -2), (1, 2, -1), (1, 0, 0)])
    assert sparse.cols == [{}, {}, {1: 3}]
    assert sparse.nnz() == 1 and not sparse_is_zero(sparse)
    cancelled = sparse_from_entries(2, 2, [(1, 1, 5), (1, 1, -5)])
    assert cancelled.cols == [{}, {}]
    assert cancelled.nnz() == 0 and sparse_is_zero(cancelled)
    # A product whose terms cancel stores nothing either.
    a = _sparse([[1, 1]])
    b = _sparse([[1], [-1]])
    product = sparse_multiply(a, b)
    assert product.cols == [{}] and sparse_is_zero(product)
    assert SparseIntMatrix(2, 3).cols == [{}, {}, {}]


def test_sparse_matrix_refuses_entries_outside_its_shape():
    with pytest.raises(ValueError, match=r"entry \(0, -1, 1\)"):
        sparse_from_entries(2, 2, [(0, -1, 1), (5, 0, 2)])
    with pytest.raises(ValueError, match=r"entry \(5, 0, 2\)"):
        sparse_from_entries(2, 2, [(0, 1, 1), (5, 0, 2)])
    with pytest.raises(ValueError, match=r"entry \(-1, 1, 3\)"):
        sparse_from_entries(2, 2, [(-1, 1, 3)])
    with pytest.raises(ValueError, match=r"entry \(0, 2, 1\)"):
        sparse_from_entries(2, 2, [(0, 2, 1)])


def test_sparse_transpose_matches_dense_transpose():
    rng = random.Random(12)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), lo=-3, hi=3, density=0.5)
        sparse = _sparse(a)
        t = sparse.transposed()
        assert (t.nrows, t.ncols) == (sparse.ncols, sparse.nrows)
        assert to_dense(t) == transpose(a)
        assert t.transposed().cols == sparse.cols


# (n, ordered) -> basis sizes by degree, and nonzeros of each stored coboundary
# d_d^T (those of the boundary d_d).
TORUS_SHAPES = {
    (3, True): ([1, 27, 343, 3375, 29791], {1: 0, 2: 923, 3: 11548, 4: 123907}),
    (4, False): ([1, 40, 360, 1546, 4144, 7896],
                 {1: 0, 2: 1080, 3: 6184, 4: 20720, 5: 47376}),
}


@pytest.mark.parametrize("n, ordered, ranks", [
    (3, True, {1: 0, 2: 24, 3: 316, 4: 3058}),
    (4, False, {1: 0, 2: 36, 3: 318, 4: 1224, 5: 2919}),
])
def test_torus_boundary_ranks(n, ordered, ranks):
    qc = build_quotient_complex(TranslationAction.standard(n), 1, range(n + 2),
                                include_degenerate=ordered)
    sizes, nnz = TORUS_SHAPES[(n, ordered)]
    assert [qc.basis_size(d) for d in qc.degrees] == sizes
    assert {d: m.nnz() for d, m in qc.matrices.items()} == nnz
    for d, m in qc.matrices.items():
        assert m.rank_and_factors() == (ranks[d], [1] * ranks[d]), d
    assert sorted(qc.matrices) == sorted(ranks)


def test_helpers():
    assert transpose([[1, 2], [3, 4], [5, 6]]) == [[1, 3, 5], [2, 4, 6]]
    assert identity(2) == [[1, 0], [0, 1]]
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
