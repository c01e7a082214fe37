"""Independent oracles used to freeze expected values.

These deliberately avoid the library's evaluation path: crossing counts
come from grid walks, winding numbers and Fraction barycentric coordinates,
ranks and pivots from Fraction row reduction, so agreement is a genuine
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from coarse_chains import (
    INTEGERS,
    AffineSimplex,
    EquivariantChain,
    FlatPair,
    LatticeSpace,
    TranslationAction,
    TruncationError,
    boundary,
)
from coarse_chains.equivariant import QuotientComplex
from coarse_chains.intlinalg import (
    SmithSolver,
    SparseIntMatrix,
    kernel_basis,
    mat_vec,
    snf_with_transforms,
)


def crossing_oracle_q1(y0, y1) -> int:
    """Signed 0-crossings of the affine path y(t) on a fine grid walk.

    Exact for integer endpoints bounded well below the prime step count.
    """
    samples = 101
    signs = []
    for i in range(samples + 1):
        t = Fraction(i, samples)
        v = Fraction(y0) + t * (Fraction(y1) - Fraction(y0))
        signs.append((v > 0) - (v < 0))
    assert all(s != 0 for s in signs), "oracle sampled an exact zero"
    total = 0
    for a, b in zip(signs, signs[1:]):
        if a < 0 < b:
            total += 1
        elif b < 0 < a:
            total -= 1
    return total


def winding_oracle_q2(verts) -> int:
    """Winding number of the closed polygon around the origin (exact)."""
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    w = 0
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        assert a != (0, 0)
        if a[1] <= 0 < b[1] and cross(a, b) > 0:
            w += 1
        elif b[1] <= 0 < a[1] and cross(a, b) < 0:
            w -= 1
    return w


def thom_oracle(simplex: AffineSimplex, pair: FlatPair) -> int:
    """Crossing count via sampling (q=1) or winding (q=2)."""
    normals = [pair.normal_part(v) for v in simplex.vertices]
    if pair.codim == 1:
        value = crossing_oracle_q1(normals[0][0], normals[1][0])
    elif pair.codim == 2:
        value = winding_oracle_q2(normals)
    else:
        raise NotImplementedError
    return pair.normal_orientation * value


def lattice_ball(space: LatticeSpace, center, r: int) -> list[tuple[int, ...]]:
    """All points within sup-distance r of center, lexicographically."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    space.check_point(center)
    return [tuple(p) for p in product(*[range(c - r, c + r + 1) for c in center])]


def diameter(simplex: AffineSimplex) -> Fraction:
    """Largest sup-distance between two vertices of the simplex."""
    vs = simplex.vertices
    return max((max(abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q))
                for i, p in enumerate(vs) for q in vs[i + 1:]), default=Fraction(0))


def barycentric_point(simplex: AffineSimplex, weights) -> tuple[Fraction, ...]:
    """The point with the given barycentric weights (summing to 1)."""
    if len(weights) != len(simplex.vertices) or sum(weights) != 1:
        raise ValueError("weights must match the vertex count and sum to 1")
    return tuple(sum(w * Fraction(v[i]) for w, v in zip(weights, simplex.vertices))
                 for i in range(simplex.ambient_dim))


def is_canonical(action: TranslationAction, tup) -> bool:
    """Whether the tuple is its own orbit representative."""
    return not any(action.canonical_shift(tup[0]))


def quotient_boundary_oracle(qc: QuotientComplex, d: int) -> list[list[int]]:
    """Dense d_d of the quotient complex, with every face of every basis
    tuple sent through normalize_tuple and placed by its lower-basis row."""
    row = {t: i for i, t in enumerate(qc.bases[d - 1])}
    out = [[0] * len(qc.bases[d]) for _ in row]
    for col, tup in enumerate(qc.bases[d]):
        for j in range(len(tup)):
            out[row[qc.action.normalize_tuple(tup[:j] + tup[j + 1:])]][col] += (-1) ** j
    return out


def sparse_from_entries(nrows: int, ncols: int, entries) -> SparseIntMatrix:
    """A column-stored sparse matrix from (row, column, value) entries, each
    inside the shape; entries at one place are summed and zero sums dropped."""
    out = SparseIntMatrix(nrows, ncols)
    for r, c, v in entries:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry {(r, c, v)} lies outside a {nrows} x {ncols} matrix")
        col = out.cols[c]
        if total := col.get(r, 0) + v:
            col[r] = total
        else:
            col.pop(r, None)
    return out


def to_dense(a: SparseIntMatrix) -> list[list[int]]:
    """A column-stored sparse matrix as a list of rows."""
    out = [[0] * a.ncols for _ in range(a.nrows)]
    for c, col in enumerate(a.cols):
        for r, v in col.items():
            out[r][c] = v
    return out


def sparse_multiply(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Product of two column-stored sparse matrices."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in sparse multiply")
    # Column c of A B is the sum over k of B[k, c] times column k of A.
    return sparse_from_entries(a.nrows, b.ncols,
                               ((r, c, w * v) for c, bcol in enumerate(b.cols)
                                for k, w in bcol.items() for r, v in a.cols[k].items()))


def sparse_is_zero(a: SparseIntMatrix) -> bool:
    """Whether a column-stored sparse matrix has no nonzero entry."""
    return not any(a.cols)


def mat_mul(a, b):
    """Plain matrix product of lists of rows."""
    if not a or not b:
        return []
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def frac_rank_oracle(matrix: list[list[int]]) -> int:
    """Row-echelon rank over the rationals, independent of the SNF code."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def pivot_columns_oracle(matrix) -> list[int]:
    """Greedy leftmost independent columns: keep a column iff it raises the rank."""
    picked: list[int] = []
    for j in range(len(matrix[0]) if matrix else 0):
        cols = picked + [j]
        if frac_rank_oracle([[row[c] for c in cols] for row in matrix]) == len(cols):
            picked = cols
    return picked


def det_oracle(matrix: list[list[int]]) -> Fraction:
    """Determinant by Fraction elimination, independent of the SNF code."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def _minor_gcd(matrix: list[list[int]], size: int) -> int:
    g = 0
    ncols = len(matrix[0])
    for rows in combinations(range(len(matrix)), size):
        for cols in combinations(range(ncols), size):
            g = gcd(g, int(det_oracle([[matrix[r][c] for c in cols] for r in rows])))
    return g


def int_solvable_oracle(matrix: list[list[int]], b: list[int]) -> bool:
    """Whether A x = b has an integral solution, by determinantal divisors.

    Heger's criterion: A and [A | b] must have the same rank r and the same
    gcd of r x r minors.  Exponential in the size; for small matrices only.
    """
    augmented = [row + [x] for row, x in zip(matrix, b)]
    r = frac_rank_oracle(matrix)
    if frac_rank_oracle(augmented) != r:
        return False
    return r == 0 or _minor_gcd(matrix, r) == _minor_gcd(augmented, r)


def lattice_coords_oracle(generators, v) -> tuple[Fraction, ...]:
    """Fraction coordinates of v along the generators, by Cramer's rule.

    They are read on the first coordinate rows on which the generators are
    independent (rows picked with the Fraction rank above), so for a
    rank-deficient lattice they are defined for every v, in its span or not.
    """
    rows: list[list[int]] = []
    picked: list[int] = []
    for i in range(len(v)):
        if len(rows) == len(generators):
            break
        candidate = rows + [[g[i] for g in generators]]
        if frac_rank_oracle(candidate) == len(candidate):
            rows = candidate
            picked.append(v[i])
    den = det_oracle(rows)
    return tuple(
        det_oracle([row[:j] + [x] + row[j + 1:] for row, x in zip(rows, picked)]) / den
        for j in range(len(generators))
    )


# Perturbed origin (eps, eps^2, ..., eps^q).  With q <= 4 and coordinates in
# [-2, 2], each barycentric numerator is a polynomial in eps whose integer
# coefficients (minors of the edge matrix) stay below 10^5 in absolute
# value, so at this eps its sign is that of its first nonzero coefficient.
EPSILON = Fraction(1, 10**6)


def crossing_number_oracle(normals, perturb: bool, eps: Fraction = EPSILON) -> int | None:
    """Signed crossing of the simplex on `normals` (q + 1 points of Q^q) at the
    origin, or (with perturb) at (eps, ..., eps^q), from Fraction barycentric
    coordinates by Gauss-Jordan.  None when that point lies on the simplex's
    boundary, or in the affine hull of a flat simplex: positions the library
    must refuse.
    """
    q = len(normals) - 1
    point = [eps ** (j + 1) if perturb else Fraction(0) for j in range(q)]
    v0 = [Fraction(x) for x in normals[0]]
    edges = [[Fraction(normals[i + 1][r]) - v0[r] for i in range(q)] for r in range(q)]
    aug = [row + [p - x] for row, p, x in zip(edges, point, v0)]
    d = det_oracle(edges)
    if d == 0:
        return None if frac_rank_oracle(aug) == frac_rank_oracle(edges) else 0
    for col in range(q):
        pivot = next(r for r in range(col, q) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(q):
            if r != col and aug[r][col] != 0:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    lam = [row[q] for row in aug]
    coords = [1 - sum(lam), *lam]
    if any(x < 0 for x in coords):
        return 0
    if any(x == 0 for x in coords):
        return None
    return 1 if d > 0 else -1


def staircase_cycle(n: int, axes) -> EquivariantChain:
    """The coordinate subtorus on `axes` of the torus Z^n / Z^n as an integral
    cycle: the signed staircase simplices over the permutations of the axes
    (a point when there are none)."""
    terms = []
    for perm in permutations(axes):
        vertices = [(0,) * n]
        for axis in perm:
            vertices.append(tuple(c + (i == axis) for i, c in enumerate(vertices[-1])))
        inversions = sum(a > b for a, b in combinations(perm, 2))
        terms.append((tuple(vertices), (-1) ** inversions))
    return EquivariantChain(len(axes), TranslationAction.standard(n), INTEGERS, terms)


def dense_class_oracle(cycle: EquivariantChain, complex_: QuotientComplex) -> list[int]:
    """Class coordinates by dense Smith forms, the reference for
    identify_class: an integral basis of the cycle lattice from the Smith
    form of a densified d_d, the boundaries of C_{d+1} in its coordinates,
    and the Smith form of that matrix with its row transform.  The free
    coordinates of the cycle are the rows of the transform past the rank;
    a class with nonzero torsion coordinates raises."""
    if cycle.group != INTEGERS:
        raise ValueError("class identification works with integer coefficients")
    if cycle.action != complex_.action:
        raise ValueError("cycle and complex use different actions")
    d = cycle.degree
    if d not in complex_.bases or d + 1 not in complex_.matrices:
        raise ValueError(f"complex does not cover degree {d} (need degree {d + 1} too)")
    if not complex_.include_degenerate:
        raise ValueError("class identification needs the ordered basis "
                         "(include_degenerate=True), not the oriented one")
    if d >= 1 and not boundary(cycle).is_zero():
        raise ValueError("chain is not a cycle")

    idx = {tup: i for i, tup in enumerate(complex_.bases[d])}
    dim = complex_.basis_size(d)
    z = [0] * dim
    for tup, coeff in cycle.terms.items():
        pos = idx.get(tup)
        if pos is None:
            raise TruncationError(
                f"cycle tuple {tup} exceeds the complex spread bound {complex_.r_max}")
        z[pos] = coeff

    # Integral basis of the cycle lattice in degree d (everything if the
    # complex carries no boundary out of this degree), factored once: its
    # full column rank makes every kernel coordinate below unique.
    if d in complex_.matrices:
        kernel_cols = kernel_basis(transpose(to_dense(complex_.matrices[d])))
    else:
        kernel_cols = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    k = len(kernel_cols)
    kmat = [[kernel_cols[j][i] for j in range(k)] for i in range(dim)]
    kernel = SmithSolver(kmat)
    w = kernel.solve(z)
    if w is None:
        raise ValueError("cycle is not an integral combination of the kernel basis")

    # Express the boundary image in kernel coordinates, one column at a
    # time, and diagonalize.  The kernel basis is saturated, so a column
    # fails to solve exactly when d_d d_{d+1} != 0 on it.
    # Row j of the stored coboundary d_{d+1}^T is the boundary of tuple j.
    bnd = to_dense(complex_.matrices[d + 1])
    n_cols = len(bnd)
    y_matrix = [[0] * n_cols for _ in range(k)]
    for j, col in enumerate(bnd):
        y = kernel.solve(col)
        if y is None:
            raise ValueError("boundary image escaped the cycle lattice; "
                             "the boundary matrices do not compose to zero")
        for i, yi in enumerate(y):
            if yi:
                y_matrix[i][j] = yi

    if n_cols:
        dsnf, u, _ = snf_with_transforms(y_matrix)
        diag = [dsnf[i][i] for i in range(min(k, n_cols))]
    else:
        u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        diag = []
    h = mat_vec(u, w)
    rank_im = len([x for x in diag if x])
    free = [h[i] for i in range(rank_im, k)]
    torsion = [(h[i] % diag[i], diag[i]) for i in range(rank_im) if diag[i] > 1]
    if any(t for t, _ in torsion):
        raise ValueError(f"class has torsion coordinates {torsion}; free part {free}")
    return free
