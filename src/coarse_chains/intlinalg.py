"""Exact linear algebra, the package's one elimination module.

Small exact questions share one fraction-free echelon (Bareiss row
reduction, rational rows scaled to integers first): determinants above size
3 (closed forms below), ranks and pivot columns.  Adjugates come from
cofactors, with closed forms up to size 3.  Kernels and integral solving
come from the Smith normal form.  Dense Smith routines serve small matrices
only: set-aside cores and the class coordinates read past them.  Lattice
coordinates and coset bookkeeping (equivariant) need no Smith form, and
invariant_factors carries no transforms, so a tall core costs its own size.
Solving is "factor once, solve many": SmithSolver keeps one Smith
form of a matrix and answers every right-hand side against it by unimodular
back-substitution, so a batch of solves costs one Smith form, not one per
column.  SparseIntMatrix holds the large coboundary matrices of quotient
complexes by column only, one {row: nonzero value} dict per column, the
layout a column reduction reads.
Its reduction, as in persistent homology, only ever adds multiples of columns
whose lowest entry is +-1 (unimodular operations only), and hands the small
leftover core to the dense routine, so ranks and invariant factors stay exact.
CoboundaryReduction checks d d = 0 once and reduces each stored coboundary
once, as Ripser does (rising degree, clearing): homology ranks and cocycles
read that one reduction, whose rows below 0 carry the column transform V
once a class needs it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Container, Iterable, Mapping, Sequence

Matrix = list[list[int]]
RationalMatrix = list[list[int | Fraction]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, x: Sequence[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x) if v) for row in a]


def snf_with_transforms(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form D = U * A * V with U, V unimodular.

    D is diagonal with non-negative entries d_1 | d_2 | ... ; U and V are
    square integer matrices of determinant +-1.
    """
    u, v = identity(len(a)), identity(len(a[0]) if a else 0)
    return _smith(a, u, v), u, v


def _smith(a: Matrix, u: Matrix, v: Matrix) -> Matrix:
    """The Smith form of a, doing each row operation on the rows of u and
    each column operation on the columns of v, in place.  m empty rows for u
    and no rows for v keep no transform at all."""
    d = [row[:] for row in a]
    m = len(d)
    n = len(d[0]) if m else 0

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while t < min(m, n):
        # Smallest-magnitude nonzero pivot in the trailing block.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # Reduce the pivot column, bringing smaller remainders up.
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    qf = d[i][t] // d[t][t]
                    add_row(t, i, -qf)
                    if d[i][t]:
                        swap_rows(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    qf = d[t][j] // d[t][t]
                    add_col(t, j, -qf)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            break

        # Divisibility: fold any non-divisible entry into the pivot row.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d


def diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    return [x for x in diagonal(_smith(a, [[] for _ in a], [])) if x]


def _integer_rows(a: RationalMatrix) -> tuple[Matrix, int]:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    rows: Matrix = []
    scale = 1
    for row in a:
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row] if m != 1 else list(row))
        scale *= m
    return rows, scale


def det(a: RationalMatrix) -> int | Fraction:
    """Exact determinant of a square matrix of integers or fractions."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    m, scale = _integer_rows(a)
    pivots, sign, last = _echelon(m)
    if len(pivots) < n:
        return 0
    return sign * last if scale == 1 else Fraction(sign * last, scale)


def _echelon(m: Matrix) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix, in place.

    A column with no nonzero entry left below the pivot rows is skipped.
    Returns the pivot columns, the sign of the row swaps and the last pivot;
    every division is exact, and the last pivot of a square matrix of full
    rank is its determinant up to that sign.
    """
    pivots: list[int] = []
    sign = prev = 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        if m[k][c] == 0:
            swap = next((r for r in range(k + 1, len(m)) if m[r][c]), None)
            if swap is None:
                continue
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[c]
        for row in m[k + 1:]:
            x = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pivot - x * pivot_row[j]) // prev
        prev = pivot
        pivots.append(c)
    return pivots, sign, prev


def pivot_columns(a: RationalMatrix) -> list[int]:
    """Indices of the leftmost maximal set of linearly independent columns.

    Their number is the rank; rows of fractions are scaled to integers first.
    """
    return _echelon(_integer_rows(a)[0])[0]


def adjugate(a: RationalMatrix) -> RationalMatrix:
    """adj(A), with A * adj(A) = det(A) * I, from cofactors."""
    n = len(a)
    if n == 1:
        return [[1]]
    if n == 2:
        (p, q), (r, s) = a
        return [[s, -q], [-r, p]]
    if n == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        return [[t * x - u * w, r * w - q * x, q * u - r * t],
                [u * v - s * x, p * x - r * v, r * s - p * u],
                [s * w - t * v, q * v - p * w, p * t - q * s]]
    adj: RationalMatrix = []
    for j in range(n):
        rest = [row[:j] + row[j + 1:] for row in a]
        adj.append([(-1) ** (i + j) * det(rest[:i] + rest[i + 1:]) for i in range(n)])
    return adj


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Columns spanning ker(A) over Z (an integral basis)."""
    d, _, v = snf_with_transforms(a)
    r = len([x for x in diagonal(d) if x])
    return [[row[j] for row in v] for j in range(r, len(v))]


class SmithSolver:
    """Integral solutions of A x = b for many b, from one Smith form of A.

    With D = U A V, A x = b holds exactly when x = V y and D y = U b: the
    i-th invariant factor must divide (U b)_i, and (U b)_i must vanish past
    the rank.
    """

    def __init__(self, a: Matrix) -> None:
        d, self._u, v = snf_with_transforms(a)
        self.nrows = len(a)
        self.factors = [x for x in diagonal(d) if x]
        self._v = [row[:len(self.factors)] for row in v]

    def solve(self, b: Sequence[int]) -> list[int] | None:
        """One integral solution of A x = b, or None if there is none."""
        if len(b) != self.nrows:
            raise ValueError(f"right-hand side has {len(b)} entries, matrix has {self.nrows} rows")
        ub = mat_vec(self._u, b)
        y = [divmod(x, di) for x, di in zip(ub, self.factors)]
        if any(rem for _, rem in y) or any(ub[len(self.factors):]):
            return None
        return mat_vec(self._v, [q for q, _ in y])


def solve_int(a: Matrix, b: Sequence[int]) -> list[int] | None:
    """One integral solution of A x = b, or None if there is none."""
    return SmithSolver(a).solve(b)


# -- sparse reduction ------------------------------------------------------

Column = dict[int, int]
# Unit pivots by low, then (index, column) of each column set aside at a non-unit
# low and, if V rides along, of each column reducing to zero (else None).
Reduced = tuple[dict[int, Column], list[tuple[int, Column]], list[tuple[int, Column]] | None]


def _cancel(col: Column, pivots: Mapping[int, Column], exhaust: bool) -> int | None:
    """Cancel col's entries from the highest row down against the pivot with
    that low; each step lowers the row, so there are <= nrows steps.
    Returns the first low without a pivot, unless exhausting past it."""
    heap = sorted(-r for r in col)
    while heap:
        low = -heapq.heappop(heap)
        pivot = pivots.get(low)
        if low not in col or (pivot is None and exhaust):
            continue
        if pivot is None:
            return low
        factor = col[low] * pivot[low]
        for r, v in pivot.items():
            new = col.get(r, 0) - factor * v
            if not new:
                del col[r]
                continue
            if r not in col:
                heapq.heappush(heap, -r)
            col[r] = new
    return None


def _reduce_columns(cols: Iterable[Column], cleared: Container[int] = (),
                    transform: bool = False) -> Reduced:
    """Reduce columns in order against earlier columns whose lowest
    (largest-row) entry is +-1, so every step is unimodular, skipping those
    in `cleared` and, unless V is carried, empty ones.  Returns these unit
    pivots by low, (index, copy) of each column left with a non-unit low and,
    with `transform`, (index, column) of each column that reduces to zero.
    Rows below 0 are never pivoted on: there, with `transform`, column j
    carries column j of the column transform V, in rows -1 - k."""
    pivots: dict[int, Column] = {}
    aside: list[tuple[int, Column]] = []
    zeros: list[tuple[int, Column]] = []
    for j, col in enumerate(cols):
        if j in cleared or not (col or transform):
            continue
        col = col | {-1 - j: 1} if transform else col
        low = max(col)
        if low in pivots:
            col = dict(col)
            low = _cancel(col, pivots, False)
        if low is None or low < 0:
            zeros.append((j, col))
            continue
        # A column no pivot touched becomes a pivot as it stands: pivots
        # are only read.  Set-aside columns are reduced further, so copied.
        if col[low] in (1, -1):
            pivots[low] = col
        else:
            aside.append((j, dict(col)))
    return pivots, aside, zeros if transform else None


def _dense(cols: list[Column]) -> Matrix:
    """The columns' rows >= 0, densely, on the rows they touch (or one zero row)."""
    rows = sorted({r for col in cols for r in col if r >= 0})
    return [[col.get(r, 0) for col in cols] for r in rows] or [[0] * len(cols)]


class SparseIntMatrix:
    """Sparse integer matrix stored by column: cols[j] maps row -> nonzero value.
    It is made empty, and its owner writes the columns in place."""

    def __init__(self, nrows: int, ncols: int) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.cols: list[Column] = [{} for _ in range(ncols)]

    def nnz(self) -> int:
        return sum(map(len, self.cols))

    def transposed(self) -> "SparseIntMatrix":
        # Stored entries are in range, nonzero and one per place: no checks.
        out = SparseIntMatrix(self.ncols, self.nrows)
        rows = out.cols
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][c] = v
        return out

    def rank_and_factors(self, _reduced: Reduced | None = None) -> tuple[int, list[int]]:
        """Exact rank and invariant factors; the matrix is left unchanged.
        `_reduced` is the columns' reduction as CoboundaryReduction stores it;
        without it they are reduced here, uncleared.  A copy of each set-aside
        column is then reduced on every pivot row and handed, with the others,
        to the dense Smith routine on its rows >= 0."""
        pivots, aside, _ = _reduced or _reduce_columns(self.cols)
        factors = [1] * len(pivots)
        core = [dict(col) for _, col in aside]
        for col in core:
            _cancel(col, pivots, True)
        core = [col for col in core if max(col, default=-1) >= 0]
        if core:
            factors.extend(invariant_factors(_dense(core)))
        return len(factors), factors


class CoboundaryReduction:
    """A chain complex's coboundaries, reduced once and read many times, as
    SmithSolver factors once and solves many.  It reads the coboundaries
    {d: delta_{d-1} = d_d^T: C_{d-1} -> C_d} as stored and checks d d = 0
    once, before anything is read off.  Each delta_{d-1} is reduced once, in
    rising degree and cleared on the unit lows of delta_{d-2}; the ranks and
    the cocycles both read that reduction, redone once with V for a class."""

    def __init__(self, coboundaries: Mapping[int, SparseIntMatrix]) -> None:
        self.coboundaries = coboundaries
        self._checked = False
        self._reduced: dict[int, Reduced] = {}
        self._cocycles: dict[int, tuple[list[Column], SmithSolver | None]] = {}

    def composes_to_zero(self) -> bool:
        """Whether every delta_d delta_{d-1} = (d_d d_{d+1})^T vanishes, read
        one product column at a time and stopping at the first nonzero one."""
        for d in sorted(self.coboundaries):
            if d + 1 not in self.coboundaries:
                continue
            lower, upper = self.coboundaries[d], self.coboundaries[d + 1]
            if lower.nrows != upper.ncols:
                # In d_d's shapes, as the transpose-boundary verify mutation reports it.
                raise ValueError(f"cannot compose d_{d} ({lower.ncols} x {lower.nrows}) "
                                 f"with d_{d + 1} ({upper.ncols} x {upper.nrows})")
            for lower_col in lower.cols:
                # Column c of the product sums delta_{d-1}[k, c] times column k of delta_d.
                product: dict[int, int] = {}
                for k, w in lower_col.items():
                    for r, v in upper.cols[k].items():
                        product[r] = product.get(r, 0) + w * v
                if any(product.values()):
                    return False
        return True

    def _check(self) -> None:
        self._checked = self._checked or self.composes_to_zero()
        if not self._checked:
            raise ValueError("boundary matrices do not compose to zero; not a complex")

    def _reduction(self, d: int, transform: bool = False) -> Reduced:
        """The one stored reduction of delta_{d-1} (empty past the complex),
        made with V if `transform` asks and it has none, and only ever read.
        A unit-pivot low i of delta_{d-2} clears column i: its reduced column
        R is a cocycle with +-1 at i, so R in column i of the identity is a
        unimodular V zeroing it."""
        done = self._reduced.get(d)
        if d in self.coboundaries and (done is None or transform and done[2] is None):
            done = self._reduced[d] = _reduce_columns(
                self.coboundaries[d].cols, self._reduction(d - 1)[0], transform)
        return done or ({}, [], None)

    @cached_property
    def ranks(self) -> dict[int, tuple[int, list[int]]]:
        """Rank and invariant factors of each d_d (all that is kept), read
        by rank_and_factors off the stored reduction of d_d^T.  The top one
        is then dropped: no degree above clears on it, and the cocycles of
        the degree below are kept once made, or redo it with V."""
        self._check()
        ranks = {d: m.rank_and_factors(self._reduction(d))
                 for d, m in sorted(self.coboundaries.items())}
        self._reduced.pop(max(self.coboundaries, default=None), None)
        return ranks

    def class_coordinates(self, d: int, z: Mapping[int, int]) -> list[int]:
        """Free coordinates of the class of the cycle z = {row: value} of C_d,
        from its pairings with cocycles built on the first class of degree d."""
        if d not in self._cocycles:
            self._check()
            self._cocycles[d] = self._cocycle_basis(d)
        cocycles, solver = self._cocycles[d]
        pairings = [sum(v * z.get(i, 0) for i, v in psi.items()) for psi in cocycles]
        return pairings if solver is None else solver.solve(pairings)

    def _cocycle_basis(self, d: int) -> tuple[list[Column], SmithSolver | None]:
        """Cocycles {row of C_d: value}, and the solver for the coordinates
        where non-unit lows leave relations, read off copies from the stored
        reductions of d_d^T (if any; rows below 0 ignored) and of d_{d+1}^T
        with V: each of its columns reducing to zero leaves a cocycle.  Past
        non-unit lows, the kernel of d_{d+1}^T's exhausted set-aside core adds
        cocycles, and d_d^T's set-aside coboundaries, solved top-down through
        the V from before exhausting, give relations; the coordinates solve
        K x = pairings for a kernel basis K of the relations."""
        cleared, coboundaries, _ = self._reduction(d)
        pivots, aside, zeros = self._reduction(d + 1, True)
        cocycles = [{-1 - r: v for r, v in col.items() if r < 0} for _, col in zeros]
        if not aside and not coboundaries:
            return cocycles, None
        # V column i ends in row i with a 1; row -1 - i counts what a solve takes off.
        basis = {low: {r: v for r, v in col.items() if r >= 0} for low, col in cleared.items()}
        for col in [col for _, col in zeros + aside] + list(pivots.values()):
            basis[-1 - min(col)] = {-1 - r: v for r, v in col.items() if r < 0} | {min(col): 1}
        exhausted = [dict(col) for _, col in aside]
        for col in exhausted:
            _cancel(col, pivots, True)
        kernel = kernel_basis(_dense(exhausted))
        psis = [{-1 - r: v for r, v in col.items() if r < 0} for col in exhausted]
        cocycles += [{i: sum(k * psi.get(i, 0) for k, psi in zip(vec, psis))
                      for i in set().union(*psis)} for vec in kernel]
        in_kernel = SmithSolver([[vec[s] for vec in kernel] for s in range(len(aside))])
        relations = []
        for _, col in coboundaries:
            col = {r: v for r, v in col.items() if r >= 0}
            _cancel(col, basis, True)
            coeffs = [-col.get(-1 - j, 0) for j, _ in zeros + aside]
            relations.append(coeffs[:len(zeros)] + in_kernel.solve(coeffs[len(zeros):]))
        if not relations or not cocycles:
            return cocycles, None
        free = kernel_basis(relations)
        return cocycles, SmithSolver([[vec[i] for vec in free] for i in range(len(cocycles))])
