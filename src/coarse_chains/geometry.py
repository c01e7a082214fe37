"""Exact rational affine geometry for flat pairs.

The model submanifold is the coordinate flat Z^(n-q) x {0}^q inside Z^n
with an orientation sign attached to the trailing normal frame.  The Thom
class of the flat evaluates on the affine q-simplex spanned by a vertex
tuple as the signed crossing number of the normal projection at the
origin: +-1 when the origin is interior to the projected simplex, 0 when
it is outside, and DegeneratePosition when it sits on the boundary (no
silent tie-breaking; a symbolic lexicographic perturbation of the flat is
available as an explicit opt-in).  Thom evaluation reads the vertex tuple
itself; `fill` builds the AffineSimplex only for the DegeneratePosition
payload and for the face-compatibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coeffs import CoefficientGroup, Element, INTEGERS, RATIONALS
from .intlinalg import adjugate, det, mat_vec, pivot_columns
from .spaces import json_int

Coord = int | Fraction
Vertex = tuple[Coord, ...]


class DegeneratePosition(ValueError):
    """The configuration meets the flat's affine hull non-transversally.

    Raised instead of guessing a sign: the offending simplex (and, when
    known, the chain tuple it was filled from) is attached for reporting.
    """

    def __init__(self, message: str, simplex: "AffineSimplex | None" = None,
                 chain_tuple: tuple | None = None) -> None:
        super().__init__(message)
        self.simplex = simplex
        self.chain_tuple = chain_tuple


@dataclass(frozen=True)
class AffineSimplex:
    """Ordered affine simplex with exact rational vertices."""

    ambient_dim: int
    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise ValueError(f"vertex {v!r} not in dimension {self.ambient_dim}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def face(self, j: int) -> "AffineSimplex":
        if not 0 <= j <= self.dim:
            raise IndexError(f"face index {j} out of range")
        return AffineSimplex(self.ambient_dim, self.vertices[:j] + self.vertices[j + 1:])

    def faces(self) -> list[tuple[int, "AffineSimplex"]]:
        """Signed face list [(+1, face_0), (-1, face_1), ...]."""
        return [((-1) ** j, self.face(j)) for j in range(self.dim + 1)]

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": [[RATIONALS.to_json(c) for c in v] for v in self.vertices],
        }


def fill(points: Sequence[Sequence[Coord]]) -> AffineSimplex:
    """Affine simplex with the given ordered vertices.

    In a convex ambient space the inductive filling of a tuple by geodesics
    is exactly the affine simplex, so faces of the filled simplex are the
    fillings of the vertex-dropped tuples and the diameter equals the
    tuple's spread.
    """
    if not points:
        raise ValueError("cannot fill an empty tuple")
    dim = len(points[0])
    return AffineSimplex(dim, tuple(tuple(p) for p in points))


@dataclass(frozen=True)
class FlatPair:
    """Ambient lattice Z^n with the oriented coordinate flat Z^(n-q) x {0}^q."""

    ambient_dim: int
    codim: int
    normal_orientation: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.codim <= self.ambient_dim:
            raise ValueError(f"codimension must satisfy 1 <= q <= n, got {self.codim}")
        if self.normal_orientation not in (-1, 1):
            raise ValueError("normal_orientation must be +1 or -1")

    @property
    def flat_dim(self) -> int:
        return self.ambient_dim - self.codim

    def normal_part(self, p: Sequence[Coord]) -> tuple[Coord, ...]:
        return tuple(p[self.flat_dim:])

    def tangential_part(self, p: Sequence[Coord]) -> tuple[Coord, ...]:
        return tuple(p[: self.flat_dim])

    def flat_distance(self, p: Sequence[Coord]):
        """Sup-distance from a point to the flat (= sup-norm of the normal part)."""
        return max((abs(c) for c in self.normal_part(p)), default=0)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "codim": self.codim,
            "normal_orientation": self.normal_orientation,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FlatPair":
        return cls(json_int(data["ambient_dim"], "ambient_dim"),
                   json_int(data["codim"], "codim"),
                   json_int(data.get("normal_orientation", 1), "normal_orientation"))


def _sign(x: Coord) -> int:
    return (x > 0) - (x < 0)


def _lex_sign(seq: Sequence[Coord]) -> int:
    for x in seq:
        s = _sign(x)
        if s:
            return s
    return 0


def orientation_sign(vectors: Sequence[Sequence[Coord]]) -> int:
    """Sign of the determinant of the square matrix with the given columns."""
    q = len(vectors)
    for v in vectors:
        if len(v) != q:
            raise ValueError("need q vectors of dimension q")
    return _sign(det(vectors))  # the transpose has the same determinant


# -- Thom evaluation -----------------------------------------------------

_HULL = "projected simplex is degenerate with the origin in its affine hull"
_BOUNDARY = "origin lies on the boundary of the projected simplex"


def _crossing_number(normals: list[Vertex], perturb: bool) -> int:
    """Signed crossing of the affine simplex on `normals` at the origin of R^q.

    With perturb=True the origin is displaced by the infinitesimal vector
    (eps, eps^2, ..., eps^q); signs of the barycentric coordinates are then
    decided lexicographically, which resolves every boundary tie in a way
    that is consistent across all simplices of a computation.
    """
    q = len(normals) - 1
    v0 = normals[0]
    # Columns of D are the edge vectors v_i - v_0; the origin is v_0 + D lambda.
    rows = [[normals[i + 1][r] - v0[r] for i in range(q)] for r in range(q)]
    rhs = [-c for c in v0]
    d = det(rows)

    if d == 0:
        if perturb:
            return 0
        # The origin is in the affine hull iff rhs lies in the span of D.
        if q not in pivot_columns([row + [x] for row, x in zip(rows, rhs)]):
            raise DegeneratePosition(_HULL)
        return 0

    # Barycentric coordinates of the origin times det: adj(D) rhs for
    # lambda_1..lambda_q, and det minus their sum for lambda_0.  Moving the
    # origin to (eps, ..., eps^q) adds adj(D) (eps, ..., eps^q), so a perturbed
    # sign is the lexicographic sign of (numerator, its row of adj(D)), the
    # row of lambda_0 being minus the column sums.  adj(D) is invertible, so
    # no perturbed sign is zero; the plain mode reads the numerators alone.
    adj = adjugate(rows)
    nums = mat_vec(adj, rhs)
    leads = [d - sum(nums), *nums]
    tails = [[-sum(col) for col in zip(*adj)], *adj] if perturb else [()] * (q + 1)
    sdet = _sign(d)
    tie = False
    for lead, tail in zip(leads, tails):
        s = sdet * _lex_sign((lead, *tail))
        if s < 0:
            return 0
        tie = tie or s == 0
    if tie:
        raise DegeneratePosition(_BOUNDARY)
    return sdet


def _crossing_segment(a: Coord, b: Coord, perturb: bool) -> int:
    """_crossing_number for q = 1: the segment from a to b against 0 (or eps)."""
    if perturb:
        return 1 if a <= 0 < b else -1 if b <= 0 < a else 0
    if a == b:
        if a == 0:
            raise DegeneratePosition(_HULL)
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    if lo > 0 or hi < 0:
        return 0
    if lo == 0 or hi == 0:
        raise DegeneratePosition(_BOUNDARY)
    return 1 if a < b else -1


def _crossing_triangle(v0: Sequence[Coord], v1: Sequence[Coord], v2: Sequence[Coord],
                       perturb: bool) -> int | None:
    """_crossing_number for q = 2 with the 2x2 adjugate written out.

    The leads are det(D) times the barycentric coordinates of the origin,
    each followed by its row of adj(D) (minus the column sums for lambda_0),
    and are read exactly as there.  None when D is singular in the plain
    mode, where only the general elimination tells the hull apart.
    """
    x0, y0 = v0
    ax, ay = v1[0] - x0, v1[1] - y0
    bx, by = v2[0] - x0, v2[1] - y0
    d = ax * by - bx * ay
    if d == 0:
        return 0 if perturb else None
    n1 = bx * y0 - by * x0
    n2 = ay * x0 - ax * y0
    leads = (d - n1 - n2, n1, n2)
    if d < 0:
        leads = (-leads[0], -leads[1], -leads[2])
    if not perturb:
        if min(leads) < 0:
            return 0
        if 0 in leads:
            raise DegeneratePosition(_BOUNDARY)
        return 1 if d > 0 else -1
    tails = ((ay - by, bx - ax), (by, -bx), (-ay, ax))
    for lead, (t0, t1) in zip(leads, tails):
        if lead < 0 or lead == 0 and (t0 or t1) * d < 0:
            return 0
    return 1 if d > 0 else -1


def _reject_shape(vertices: Sequence[Sequence[Coord]], pair: FlatPair) -> None:
    """Raise ValueError for a tuple that is not a q-simplex of the pair's space:
    fill's own error first, then the ambient dimension, then the arity."""
    simplex = fill(vertices)
    if simplex.ambient_dim != pair.ambient_dim:
        raise ValueError("simplex and pair live in different ambient dimensions")
    raise ValueError(
        f"Thom evaluation needs a {pair.codim}-simplex, got dimension {simplex.dim}")


def thom_crossing(vertices: Sequence[Sequence[Coord]], pair: FlatPair,
                  perturb: bool = False) -> int:
    """Integer value of the flat Thom cocycle on the q-simplex spanned by
    `vertices`: -1, 0 or +1."""
    n, q = pair.ambient_dim, pair.codim
    if len(vertices) != q + 1 or set(map(len, vertices)) != {n}:
        _reject_shape(vertices, pair)
    f = n - q
    try:
        if q == 1:
            crossing = _crossing_segment(vertices[0][f], vertices[1][f], perturb)
        else:
            normals = [v[f:] for v in vertices]
            crossing = _crossing_triangle(*normals, perturb) if q == 2 else None
            if crossing is None:
                crossing = _crossing_number(normals, perturb)
    except DegeneratePosition as exc:
        raise DegeneratePosition(str(exc), simplex=fill(vertices)) from None
    return pair.normal_orientation * crossing


def thom_evaluate(vertices: Sequence[Sequence[Coord]], pair: FlatPair,
                  group: CoefficientGroup = INTEGERS, perturb: bool = False) -> Element:
    """Evaluate the flat Thom cocycle on a q-simplex in a coefficient group.

    The value is the signed crossing number of the normal projection at
    the origin, times the pair's orientation; mod 2 the sign disappears.
    """
    return group.scale(thom_crossing(vertices, pair, perturb), group.coerce(1))


def cocycle_check(vertices: Sequence[Sequence[Coord]], pair: FlatPair,
                  group: CoefficientGroup = INTEGERS, perturb: bool = False) -> Element:
    """Alternating sum of Thom values over the faces of a (q+1)-simplex.

    The flat Thom representative is a cocycle, so this vanishes on every
    general-position input; callers treat a nonzero value as a defect.
    """
    if len(vertices) != pair.codim + 2:
        raise ValueError(f"cocycle check needs a {pair.codim + 1}-simplex, "
                         f"got dimension {len(vertices) - 1}")
    vertices = tuple(vertices)
    total = group.zero
    for j in range(len(vertices)):
        value = thom_evaluate(vertices[:j] + vertices[j + 1:], pair, group, perturb)
        total = group.add(total, group.scale(-1 if j % 2 else 1, value))
    return total
