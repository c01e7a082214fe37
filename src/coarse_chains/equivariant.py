"""Chains equivariant under translation-lattice actions, and their quotients.

A chain invariant under a sublattice of Z^n is stored by canonical orbit
representatives (first vertex normalized into the half-open fundamental
parallelepiped).  Full-rank actions admit finite quotient complexes of
bounded-spread tuples whose integral homology is computed by Smith normal
form; this is the desk-scale route from equivariant chains to the homology
of the quotient torus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb
from operator import add
from typing import Iterable, Mapping, Sequence

from .chains import ChainTuple, UfChain, _accumulate, _Chain, boundary
from .coeffs import CoefficientGroup, Element, INTEGERS
from .geometry import FlatPair, orientation_sign
from .geometry import thom_crossing  # noqa: F401 - the thom-sign mutation and perfbench patch it
from .intlinalg import (
    CoboundaryReduction,
    SparseIntMatrix,
    adjugate,
    det,
    pivot_columns,
    solve_int,  # noqa: F401 - still importable from here; perfbench's self-tests watch it
)
from .spaces import LatticeSpace, Point, Window
from .wrongway import WrongWayContext, cap_thom

Vector = tuple[int, ...]


class TruncationError(ValueError):
    """A spread/radius bound was too small to represent the requested data,
    or a requested complex too large to enumerate."""


@dataclass(frozen=True)
class TranslationAction:
    """Free isometric action of a sublattice of Z^n by translations.

    generators are linearly independent integer vectors; the action is
    automatically free, isometric and uniformly proper.  Rank below n is
    allowed (e.g. the tangential lattice of a flat pair); quotient
    complexes additionally require full rank (cocompactness).
    """

    space: LatticeSpace
    generators: tuple[Vector, ...]
    _pivot_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _coord_matrix: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _coord_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = tuple(self.space.check_point(tuple(g)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        # The first coordinate rows on which the generators are independent
        # are the pivot columns of the generator rows; on them the lattice
        # coordinates of v are adj(B) v / det(B), kept as an integer matrix
        # and a positive denominator with the sign of det(B) folded in.
        pivot_rows = pivot_columns(gens)
        if len(pivot_rows) != len(gens):
            raise ValueError("generators are linearly dependent")
        basis = [[g[i] for g in gens] for i in pivot_rows]
        den = det(basis)
        sign = 1 if den > 0 else -1
        object.__setattr__(self, "_pivot_rows", tuple(pivot_rows))
        object.__setattr__(self, "_coord_matrix",
                           tuple(tuple(sign * a for a in row) for row in adjugate(basis)))
        object.__setattr__(self, "_coord_den", sign * den)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def is_full_rank(self) -> bool:
        return self.rank == self.space.dim

    def _scaled_coords(self, v: Sequence[int]) -> tuple[int, ...]:
        """Lattice coordinates of v along the generators, times _coord_den."""
        picked = [v[i] for i in self._pivot_rows]
        return tuple(sum(a * x for a, x in zip(row, picked)) for row in self._coord_matrix)

    def has_integral_coords(self, v: Sequence[int]) -> bool:
        """Whether v lies in the lattice: integral coordinates on the pivot
        rows that, below full rank, also give v back on the other rows."""
        den, coords = self._coord_den, self._scaled_coords(v)
        return all(x % den == 0 for x in coords) and (
            self.is_full_rank() or self.vector_from_coeffs([x // den for x in coords]) == tuple(v))

    def vector_from_coeffs(self, m: Sequence[int]) -> Vector:
        return tuple(
            sum(g[i] * c for g, c in zip(self.generators, m))
            for i in range(self.space.dim)
        )

    def canonical_shift(self, p: Point) -> tuple[int, ...]:
        """Coefficients m with p - G m in the fundamental parallelepiped."""
        den = self._coord_den
        return tuple(x // den for x in self._scaled_coords(p))

    def translate_tuple(self, tup: ChainTuple, offset: Vector) -> ChainTuple:
        return tuple([tuple(map(add, p, offset)) for p in tup])

    def canonical_offset(self, p: Point) -> Vector | None:
        """The lattice translation taking p into the fundamental
        parallelepiped, or None when p already lies in it."""
        m = self.canonical_shift(p)
        return tuple(-c for c in self.vector_from_coeffs(m)) if any(m) else None

    def normalize_tuple(self, tup: ChainTuple) -> ChainTuple:
        offset = self.canonical_offset(tup[0])
        if offset is None:
            return tuple(tuple(p) for p in tup)
        return self.translate_tuple(tup, offset)

    def fundamental_points(self) -> list[Point]:
        """Lattice points inside the half-open fundamental parallelepiped."""
        if not self.is_full_rank():
            raise ValueError("fundamental domain is infinite for a non-cocompact action")
        n = self.space.dim
        corners = [
            tuple(sum(g[i] * e for g, e in zip(self.generators, eps)) for i in range(n))
            for eps in itertools.product((0, 1), repeat=n)
        ]
        lo = [min(c[i] for c in corners) for i in range(n)]
        hi = [max(c[i] for c in corners) for i in range(n)]
        out = []
        for p in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
            if all(0 <= x < self._coord_den for x in self._scaled_coords(p)):
                out.append(tuple(p))
        return sorted(out)

    def lattice_vectors_in_box(self, lo: Sequence[int], hi: Sequence[int]) -> list[Vector]:
        """All lattice vectors o = G m with lo <= o <= hi componentwise."""
        if any(a > b for a, b in zip(lo, hi)):
            return []
        # Bound m by the coordinate image of the pivot-row sub-box corners.
        corners = itertools.product(*[(lo[i], hi[i]) for i in self._pivot_rows])
        images = [[sum(a * c for a, c in zip(row, corner)) for row in self._coord_matrix]
                  for corner in corners]
        den = self._coord_den
        ranges = [range(-(-min(col) // den), max(col) // den + 1) for col in zip(*images)]
        out = []
        for m in itertools.product(*ranges):
            o = self.vector_from_coeffs(m)
            if all(a <= c <= b for a, c, b in zip(lo, o, hi)):
                out.append(o)
        return sorted(out)

    def to_json(self) -> dict:
        return {"space": self.space.to_json(),
                "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data: dict) -> "TranslationAction":
        return cls(LatticeSpace.from_json(data["space"]), data["generators"])

    @classmethod
    def standard(cls, dim: int) -> "TranslationAction":
        gens = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        return cls(LatticeSpace(dim), gens)

    @classmethod
    def tangential(cls, pair: FlatPair) -> "TranslationAction":
        """The sublattice of translations preserving the flat: Z^(n-q) x {0}."""
        n = pair.ambient_dim
        gens = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(pair.flat_dim)
        )
        return cls(LatticeSpace(n), gens)


class EquivariantChain(_Chain):
    """Chain invariant under a translation action, stored on orbit reps."""

    __slots__ = ()

    _CARRIER_KEY = "action"
    _CARRIER_TYPE = TranslationAction

    def __init__(
        self,
        degree: int,
        action: TranslationAction,
        group: CoefficientGroup,
        terms: Mapping[ChainTuple, Element] | Iterable[tuple[ChainTuple, Element]] = (),
    ) -> None:
        self._validate(degree, action, group, terms)

    @property
    def action(self) -> TranslationAction:
        return self.carrier

    @property
    def space(self) -> LatticeSpace:
        return self.carrier.space

    def _normalizer(self):
        return self.carrier.normalize_tuple

    def expand(self, window: Window) -> UfChain:
        """Orbit sum restricted to translates lying entirely in the window."""
        space = self.action.space
        out: list[tuple[ChainTuple, Element]] = []
        for tup, coeff in self.terms.items():
            lo = [min(p[i] for p in tup) for i in range(space.dim)]
            hi = [max(p[i] for p in tup) for i in range(space.dim)]
            box_lo = [a - b for a, b in zip(window.lo, lo)]
            box_hi = [a - b for a, b in zip(window.hi, hi)]
            for offset in self.action.lattice_vectors_in_box(box_lo, box_hi):
                out.append((self.action.translate_tuple(tup, offset), coeff))
        return UfChain._trusted(self.degree, space, self.group, _accumulate(self.group, out))


def kuhn_fundamental_cycle(n: int, group: CoefficientGroup = INTEGERS) -> EquivariantChain:
    """Fundamental n-cycle of the torus: the unit cube cut into n! simplices.

    Each permutation contributes the staircase simplex walking the cube's
    edges in that order, weighted by the orientation sign of its unit steps
    (the permutation sign); the orbit sum under Z^n is a cycle representing
    the fundamental class.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    action = TranslationAction.standard(n)
    terms: list[tuple[ChainTuple, Element]] = []
    units = [tuple(int(i == axis) for i in range(n)) for axis in range(n)]
    for steps in itertools.permutations(units):
        vertices = itertools.accumulate(steps, lambda p, v: tuple(map(add, p, v)),
                                        initial=(0,) * n)
        terms.append((tuple(vertices), group.coerce(orientation_sign(steps))))
    return EquivariantChain(n, action, group, terms)


def restrict_equivariance(
    c: EquivariantChain,
    sub: TranslationAction,
    pair: FlatPair,
    radius: int,
) -> EquivariantChain:
    """Forget equivariance from the full action down to a tangential sublattice.

    The action must be cocompact, and sub a rank n - q lattice in the flat
    inside it, of any finite index in the action's tangential part.  Each
    sub-orbit of a representative's translates within the given distance of
    the flat has one member, already canonical, over a fundamental point of
    sub in the flat: one per fundamental point and normal shift in the
    action.  The radius must dominate the chain's propagation, else
    translates carrying nonzero Thom values could be cut off.
    """
    action = c.action
    n = action.space.dim
    if pair.ambient_dim != n or sub.space.dim != n:
        raise ValueError("pair, action and sublattice must share the ambient lattice")
    if radius < c.propagation():
        raise TruncationError(
            f"radius {radius} below chain propagation {c.propagation()}")
    if sub == action:
        return EquivariantChain._trusted(c.degree, sub, c.group, dict(c.terms))
    for g in sub.generators:
        if any(pair.normal_part(g)):
            raise ValueError(f"sublattice generator {g} does not preserve the flat")
        if not action.has_integral_coords(g):
            raise ValueError(f"sublattice generator {g} is not in the acting lattice")
    if not action.is_full_rank() or sub.rank != pair.flat_dim:
        raise ValueError("restriction needs a cocompact action and a sublattice "
                         "spanning the flat")

    tangential = tuple(map(pair.tangential_part, sub.generators))
    feet = TranslationAction(LatticeSpace(pair.flat_dim), tangential).fundamental_points()
    out: list[tuple[ChainTuple, Element]] = []
    for tup, coeff in c.terms.items():
        normals = [pair.normal_part(p) for p in tup]
        # Normal shifts z keeping every vertex within `radius` of the flat.
        z_box = [range(-radius - min(col), radius - max(col) + 1) for col in zip(*normals)]
        base = pair.tangential_part(tup[0])
        alongs = [tuple(f - b for f, b in zip(foot, base)) for foot in feet]
        for along, z in itertools.product(alongs, itertools.product(*z_box)):
            if action.has_integral_coords(offset := along + z):
                out.append((action.translate_tuple(tup, offset), coeff))
    return EquivariantChain._trusted(c.degree, sub, c.group, _accumulate(c.group, out))


def equivariant_wrong_way(c: EquivariantChain, ctx: WrongWayContext) -> EquivariantChain:
    """Wrong-way map applied representative-wise to a tangential-equivariant chain.

    Filling, Thom evaluation and the flat projection all commute with the
    tangential translations, so the value on one representative determines
    the whole orbit; the image action is the induced lattice on the flat.
    """
    pair = ctx.pair
    for g in c.action.generators:
        if any(pair.normal_part(g)):
            raise ValueError(f"action generator {g} does not preserve the flat")
    capped = cap_thom(c, ctx)
    target = TranslationAction(
        LatticeSpace(pair.flat_dim),
        tuple(pair.tangential_part(g) for g in c.action.generators),
    )
    images = ((target.normalize_tuple(tuple(pair.tangential_part(p) for p in tup)), coeff)
              for tup, coeff in capped.terms.items())
    return EquivariantChain._trusted(capped.degree, target, capped.group,
                                     _accumulate(capped.group, images))


# -- quotient complexes ----------------------------------------------------

# Largest top-degree basis build_quotient_complex enumerates.  Building T^3
# ordered and taking its homology peaks near 0.49 KiB (tracemalloc) per
# top-degree tuple, so the cap keeps a request near 0.5 GiB.  Ordered T^4
# (63^4 tuples in degree 5) is over it; oriented T^4 (7,896) is far under.
MAX_BASIS_SIZE = 1_000_000


def predicted_basis_size(action: TranslationAction, r_max: int, degree: int,
                         include_degenerate: bool = True) -> int:
    """The size of the degree-d quotient basis, by arithmetic alone.

    A tuple (ordered basis) or vertex set (oriented basis) of spread <= R
    has one Z^n-translate in the box [0, R]^n with minimum 0 on every axis;
    its Z^n-orbit splits into |det| orbits of the action, each with one
    representative in the basis.  The translates are counted by
    inclusion-exclusion over the axes J on which no vertex is 0, which
    leave (R+1)^(n-|J|) R^|J| points of the box for the d+1 vertices.
    """
    if not action.is_full_rank():
        raise ValueError("quotient complexes need a full-rank (cocompact) action")
    n = action.space.dim
    total = 0
    for j in range(n + 1):
        points = (r_max + 1) ** (n - j) * r_max ** j
        count = points ** (degree + 1) if include_degenerate else comb(points, degree + 1)
        total += (-1) ** j * comb(n, j) * count
    return abs(det(action.generators)) * total


@dataclass
class QuotientComplex:
    """Finite chain complex of bounded-spread orbit representatives."""

    action: TranslationAction
    r_max: int
    degrees: tuple[int, ...]
    bases: dict[int, list[ChainTuple]]
    matrices: dict[int, SparseIntMatrix]  # d -> coboundary d_d^T: C_{d-1} -> C_d
    include_degenerate: bool = True

    def basis_size(self, degree: int) -> int:
        return len(self.bases.get(degree, []))

    @cached_property
    def reduction(self) -> CoboundaryReduction:
        """The one reduction of this complex's coboundaries, built on first use."""
        return CoboundaryReduction(self.matrices)


def build_quotient_complex(
    action: TranslationAction,
    r_max: int,
    degrees: Iterable[int],
    include_degenerate: bool = True,
) -> QuotientComplex:
    """Enumerate canonical tuples of spread <= r_max and their coboundary maps.

    The default basis in degree d consists of the orbit representatives of
    all ordered (d+1)-tuples whose pairwise sup-distance is at most r_max,
    repeated vertices included; faces of basis tuples normalize back into
    the lower basis, so the coboundary matrices d_d^T close up exactly.

    Every vertex of such a tuple lies within r_max of the first, so a basis
    tuple is a fundamental point i and codes c_1..c_d, the lexicographic
    ranks of its displacements from the first vertex among the
    K = (2 r_max + 1)^n vectors of [-r_max, r_max]^n, keyed by the base-K
    numeral i c_1 ... c_d.  Face j >= 1 drops digit j.  Face 0 moves the
    second vertex home to fundamental point g(i, c_1), one canonical_offset
    per (i, c_1), and recodes vertex k as c_k - c_1 + c(0): its displacement
    from the second vertex is a difference of two vertices, which the
    spread bound keeps in [-r_max, r_max]^n, so every digit stays in [0, K)
    and face keys are exact integer arithmetic.

    include_degenerate=False switches to the oriented basis: one sorted
    injective tuple per vertex set.  (Merely deleting repeated-vertex
    tuples from the ordered basis would change the homology, e.g. the two
    orientations of an edge would become independent cycles; the oriented
    reduction is the correct lean variant and gives the same betti
    numbers.)

    A request whose predicted_basis_size in the top degree exceeds
    MAX_BASIS_SIZE is refused with a TruncationError before anything is
    enumerated.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if not action.is_full_rank():
        raise ValueError("quotient complexes need a full-rank (cocompact) action")
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    if degrees and degrees != tuple(range(degrees[0], degrees[-1] + 1)):
        raise ValueError("degrees must form a contiguous range")
    n = action.space.dim
    if degrees:
        size = predicted_basis_size(action, r_max, degrees[-1], include_degenerate)
        if size > MAX_BASIS_SIZE:
            raise TruncationError(f"the degree {degrees[-1]} basis would hold {size} tuples, "
                                  f"above the cap of {MAX_BASIS_SIZE}")

    points = action.fundamental_points()
    shifts = list(itertools.product(range(-r_max, r_max + 1), repeat=n))
    K, zero = len(shifts), len(shifts) // 2
    vertices = [[tuple(map(add, p, v)) for v in shifts] for p in points]
    where = {p: i for i, p in enumerate(points)}
    homes = [where[tuple(map(add, q, action.canonical_offset(q) or shifts[zero]))]
             for row in vertices for q in row]  # i K + c -> g(i, c)

    @cache
    def extend(span: tuple) -> list[tuple[int, tuple]]:
        # The codes a prefix spanning [lo, hi] per axis admits, with new spans.
        return [(c, tuple((min(lo, x), max(hi, x)) for (lo, hi), x in zip(span, v)))
                for c, v in enumerate(shifts)
                if all(hi - r_max <= x <= lo + r_max for (lo, hi), x in zip(span, v))]

    def coboundary(d: int, below: list[int], keys: list[int]) -> SparseIntMatrix:
        # delta_{d-1} = d_d^T by column: face j of d-tuple `col` adds (-1)^j at key
        # col, the last so far, of its (d-1)-tuple's column, so keys stay in order.
        lower = {key: row for row, key in enumerate(below)}
        powers = [K ** (d - j) for j in range(1, d + 1)]  # the place of digit j
        starts = [g * powers[0] + (zero - h % K) * sum(powers[1:]) for h, g in enumerate(homes)]
        delta = SparseIntMatrix(len(keys), len(below))
        for col, key in enumerate(keys):
            head, rest = divmod(key, powers[0])
            sign = 1
            for face in (starts[head] + rest, *(key // (p * K) * p + key % p for p in powers)):
                column = delta.cols[lower[face]]
                if total := column.pop(col, 0) + sign:
                    column[col] = total
                sign = -sign
        return delta

    bases: dict[int, list[ChainTuple]] = {}
    matrices: dict[int, SparseIntMatrix] = {}
    tuples: list[ChainTuple] = [(p,) for p in points]
    keys, spans = list(range(len(points))), [((0, 0),) * n] * len(points)
    for d in range(degrees[-1] + 1 if degrees else 0):
        if d:
            grown, grown_keys, grown_spans = [], [], []
            for tup, key, span in zip(tuples, keys, spans):
                row, last = vertices[key // K ** (d - 1)], key % K if d > 1 else zero
                for c, next_span in extend(span):
                    if include_degenerate or c > last:  # codes keep the order
                        grown.append(tup + (row[c],))
                        grown_keys.append(key * K + c)
                        grown_spans.append(next_span)
            if d > degrees[0]:
                matrices[d] = coboundary(d, keys, grown_keys)
            tuples, keys, spans = grown, grown_keys, grown_spans
        if d >= degrees[0]:
            bases[d] = tuples

    return QuotientComplex(action, r_max, degrees, bases, matrices, include_degenerate)


@dataclass(frozen=True)
class DegreeHomology:
    degree: int
    betti: int
    torsion: tuple[int, ...]


@dataclass
class HomologyReport:
    """Betti numbers and torsion per degree."""

    entries: list[DegreeHomology]

    def betti(self) -> dict[int, int]:
        return {e.degree: e.betti for e in self.entries}

    def to_json(self) -> list[dict]:
        return [{"degree": e.degree, "betti": e.betti, "torsion": list(e.torsion)}
                for e in self.entries]


def snf_homology(complex_: QuotientComplex) -> HomologyReport:
    """Integral homology of the quotient complex, read off its reduction.
    Degree d is reportable when the complex carries the boundary from
    degree d+1; the top truncation degree only serves as relations."""
    ranks = complex_.reduction.ranks
    return HomologyReport([
        DegreeHomology(d, complex_.basis_size(d) - ranks.get(d, (0,))[0] - ranks[d + 1][0],
                       tuple(x for x in ranks[d + 1][1] if x > 1))
        for d in complex_.degrees if d + 1 in ranks])


def identify_class(cycle: EquivariantChain, complex_: QuotientComplex) -> list[int]:
    """Coordinates of an integral cycle's class in H_d of an ordered-basis
    complex, dual to the essential cocycles of the complex's one coboundary
    reduction (CoboundaryReduction.class_coordinates).  At non-unit lows
    (r_max >= 2) a small exact Smith step adds cocycles and divides out
    coboundaries.  Only the free part is seen: a torsion class reads as zero.
    """
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
    outside = [tup for tup in cycle.terms if tup not in idx]
    if outside:
        raise TruncationError(
            f"cycle tuple {outside[0]} exceeds the complex spread bound {complex_.r_max}")
    z = {idx[tup]: coeff for tup, coeff in cycle.terms.items()}
    return complex_.reduction.class_coordinates(d, z)
