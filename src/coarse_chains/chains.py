"""Uniformly finite chains as sparse tuple-indexed coefficient maps.

A degree-k chain assigns a nonzero coefficient to finitely many
(k+1)-tuples of lattice points.  Tuples are ordered and may repeat
vertices; the boundary operator handles the cancellation of degenerate
tuples on its own.  All operations return canonical chains: zero
coefficients are dropped and serialization orders terms lexicographically.
Equivariant chains share this core, with orbit representatives as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .coeffs import RATIONALS, CoefficientGroup, Element, group_by_name
from .spaces import LatticeSpace, Point

ChainTuple = tuple[Point, ...]


def tuple_length(tup: ChainTuple) -> int:
    """Maximal pairwise sup-distance among the tuple's points (0 for singletons):
    the largest spread max - min of one coordinate."""
    return max((max(axis) - min(axis) for axis in zip(*tup)), default=0)


def tuple_distance(space: LatticeSpace, a: ChainTuple, b: ChainTuple) -> int:
    """Sup-product distance between two tuples of equal arity."""
    if len(a) != len(b):
        raise ValueError("tuples of different arity")
    return max(space.distance(p, q) for p, q in zip(a, b))


def _accumulate(group: CoefficientGroup, items: Iterable[tuple[ChainTuple, Element]],
                out: dict[ChainTuple, Element] | None = None) -> dict[ChainTuple, Element]:
    """Sum (tuple, coefficient) pairs into a dict, dropping every zero sum.

    Coefficients arrive as elements of the group (reduced mod 2 over Z/2).
    A tuple's first coefficient is stored as it comes, unless it is zero;
    only a repeated tuple costs an addition.
    """
    out = {} if out is None else out
    mod2 = group.name == "Z/2"
    get = out.get
    for tup, coeff in items:
        old = get(tup)
        if old is None:
            if coeff:
                out[tup] = coeff
            continue
        s = old + coeff
        if mod2:
            s %= 2
        if s:
            out[tup] = s
        else:
            del out[tup]
    return out


class _Chain:
    """Chain core shared by plain and equivariant chains.

    A chain is a finite map from canonical (degree+1)-tuples to nonzero
    coefficients over a carrier: a lattice space for a plain chain, a
    translation action for an equivariant one, whose tuples are then orbit
    representatives.  Subclasses name the carrier's JSON key and type and
    say how a tuple maps to its canonical representative.
    """

    __slots__ = ("degree", "carrier", "group", "terms")

    _CARRIER_KEY: str
    _CARRIER_TYPE: type

    def _normalizer(self) -> Callable[[ChainTuple], ChainTuple] | None:
        """Map from a tuple to its canonical representative; None for the identity."""
        return None

    def _validate(self, degree: int, carrier, group: CoefficientGroup,
                  terms: Mapping[ChainTuple, Element] | Iterable[tuple[ChainTuple, Element]]
                  ) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self.carrier = carrier
        self.group = group
        space, normalize = self.space, self._normalizer()

        def checked():
            for tup, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                tup = tuple(space.check_point(tuple(p)) for p in tup)
                if len(tup) != degree + 1:
                    raise ValueError(f"tuple arity {len(tup)} does not match degree {degree}")
                yield (tup if normalize is None else normalize(tup)), group.coerce(coeff)

        self.terms = _accumulate(group, checked())

    @classmethod
    def _trusted(cls, degree: int, carrier, group: CoefficientGroup,
                 terms: dict[ChainTuple, Element]):
        """Internal builder: terms are already canonical, nonzero and coerced."""
        chain = object.__new__(cls)
        chain.degree = degree
        chain.carrier = carrier
        chain.group = group
        chain.terms = terms
        return chain

    def _like(self, degree: int, terms: dict[ChainTuple, Element]):
        return self._trusted(degree, self.carrier, self.group, terms)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.carrier == other.carrier
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.carrier, self.group, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        parts = [f"{c}*{t}" for t, c in self.sorted_terms()]
        body = " + ".join(parts) if parts else "0"
        return (f"{type(self).__name__}(deg={self.degree}, Z^{self.space.dim}, "
                f"{self.group.name}: {body})")

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[ChainTuple, Element]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def support(self) -> set[Point]:
        return {p for tup in self.terms for p in tup}

    def propagation(self) -> int:
        """Maximal tuple spread over the support; 0 for the zero chain."""
        return max((tuple_length(t) for t in self.terms), default=0)

    # -- module structure -------------------------------------------------

    def __add__(self, other):
        if (type(self), self.degree, self.carrier, self.group) != (
                type(other), other.degree, other.carrier, other.group):
            raise ValueError("chains not compatible for addition")
        return self._like(self.degree,
                          _accumulate(self.group, other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, m: int):
        group = self.group
        scaled = ((t, group.scale(m, c)) for t, c in self.terms.items())
        return self._like(self.degree, {t: c for t, c in scaled if not group.is_zero(c)})

    @classmethod
    def zero(cls, degree: int, carrier, group: CoefficientGroup):
        return cls(degree, carrier, group)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            self._CARRIER_KEY: self.carrier.to_json(),
            "group": self.group.name,
            "terms": [
                {"coeff": self.group.to_json(c), "tuple": [list(p) for p in t]}
                for t, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict):
        """Decode outside input; every malformed field raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("chain JSON must be an object")
        try:
            degree, items = data["degree"], data["terms"]
            group = group_by_name(data["group"])
            carrier = cls._CARRIER_TYPE.from_json(data[cls._CARRIER_KEY])
        except KeyError as exc:
            raise ValueError(f"chain JSON is missing key {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"bad chain {cls._CARRIER_KEY}: {exc}") from None
        if type(degree) is not int or not isinstance(items, list):
            raise ValueError(f"chain degree must be an integer and terms a list, "
                             f"got {degree!r} and {items!r}")
        terms = []
        for item in items:
            if not (isinstance(item, dict) and "coeff" in item
                    and isinstance(item.get("tuple"), list)
                    and all(isinstance(p, list) for p in item["tuple"])):
                raise ValueError(f"chain term must be {{'coeff': c, 'tuple': [[...], ...]}}, "
                                 f"got {item!r}")
            terms.append((tuple(map(tuple, item["tuple"])), group.from_json(item["coeff"])))
        return cls(degree, carrier, group, terms)


class UfChain(_Chain):
    """Sparse chain: finite map from (degree+1)-tuples to nonzero coefficients."""

    __slots__ = ()

    _CARRIER_KEY = "space"
    _CARRIER_TYPE = LatticeSpace

    def __init__(
        self,
        degree: int,
        space: LatticeSpace,
        group: CoefficientGroup,
        terms: Mapping[ChainTuple, Element] | Iterable[tuple[ChainTuple, Element]] = (),
    ) -> None:
        self._validate(degree, space, group, terms)

    @property
    def space(self) -> LatticeSpace:
        return self.carrier


def boundary(c: _Chain) -> _Chain:
    """Simplicial boundary: alternating sum of vertex-dropped tuples.

    Faces of an equivariant chain are re-normalized to orbit representatives.
    """
    if c.degree == 0:
        raise ValueError("boundary of a degree-0 chain is undefined")
    neg, normalize = c.group.neg, c._normalizer()

    def faces():
        for tup, coeff in c.terms.items():
            signed = (coeff, neg(coeff))
            for j in range(len(tup)):
                yield tup[:j] + tup[j + 1:], signed[j & 1]

    signed_faces = faces()
    if normalize is not None:
        signed_faces = ((normalize(face), coeff) for face, coeff in signed_faces)
    return c._like(c.degree - 1, _accumulate(c.group, signed_faces))


def uf_norm(c: UfChain, n: int) -> Fraction:
    """sup over terms of |coeff| * length(tuple)^n, with 0^0 = 1.

    For n = 0 this is the plain sup-norm of the coefficients; singleton
    tuples have length 0 and so contribute nothing once n >= 1.
    """
    if n < 0:
        raise ValueError("norm weight must be >= 0")
    return max((c.group.norm(coeff) * Fraction(tuple_length(tup)) ** n
                for tup, coeff in c.terms.items()), default=Fraction(0))


def frechet_seminorm(c: UfChain, n: int) -> Fraction:
    """uf_norm of the chain plus uf_norm of its boundary (0 in degree 0)."""
    extra = uf_norm(boundary(c), n) if c.degree >= 1 else Fraction(0)
    return uf_norm(c, n) + extra


@dataclass(frozen=True)
class ChainStats:
    """Recorded finiteness statistics of a chain.

    multiplicity[r] is the largest number of supported tuples within
    sup-product distance r of a supported tuple (the center counts itself).
    """

    propagation: int
    sup_norm: Fraction
    multiplicity: dict[int, int]

    def to_json(self) -> dict:
        return {
            "propagation": self.propagation,
            "sup_norm": RATIONALS.to_json(self.sup_norm),
            "multiplicity": {str(r): k for r, k in sorted(self.multiplicity.items())},
        }


def chain_stats(c: UfChain, radii: Iterable[int] = (0, 1, 2)) -> ChainStats:
    tuples = list(c.terms)
    radii = sorted(set(radii))
    mult = {r: 0 for r in radii}
    if tuples:
        dists = [[tuple_distance(c.space, a, b) for b in tuples] for a in tuples]
        for r in radii:
            mult[r] = max(sum(1 for d in row if d <= r) for row in dists)
    return ChainStats(
        propagation=c.propagation(),
        sup_norm=uf_norm(c, 0),
        multiplicity=mult,
    )


def push_tuplewise(c: UfChain, f: Callable[[Point], Point],
                   target: LatticeSpace | None = None) -> UfChain:
    """Apply a point map to every tuple coordinate and recombine.

    Degenerate image tuples are kept; their boundary terms cancel on
    their own, so pushforward commutes with the boundary exactly.
    """
    target = target or c.space
    images = ((tuple(target.check_point(tuple(f(p))) for p in tup), coeff)
              for tup, coeff in c.terms.items())
    return UfChain._trusted(c.degree, target, c.group, _accumulate(c.group, images))
