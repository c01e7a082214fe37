"""Chain-level wrong-way map over a flat pair.

The map caps a degree-k chain with the flat's Thom class (evaluating the
crossing number of each tuple's leading q-simplex), then pushes the
truncated tuples to the flat by nearest-point projection and re-indexes
to the intrinsic lattice of the flat.  The sign identity checker computes
both sides of the boundary-commutation identity independently so the
contract "residual is the zero chain" is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import UfChain, _accumulate, _Chain, boundary, push_tuplewise
from .coeffs import CoefficientGroup, INTEGERS
from .geometry import DegeneratePosition, FlatPair, fill, thom_crossing
from .spaces import LatticeSpace, Point, Window


@dataclass(frozen=True)
class WrongWayContext:
    """A flat pair together with coefficients and evaluation options.

    When a window is given, the support of every input chain must lie in
    it (scenario runs always set one); None skips the check, which is how
    the equivariant layer calls in with orbit representatives.
    """

    pair: FlatPair
    group: CoefficientGroup = INTEGERS
    perturb: bool = False
    window: Window | None = None

    def check_chain(self, c: _Chain) -> None:
        if c.space.dim != self.pair.ambient_dim:
            raise ValueError("chain does not live on the pair's ambient lattice")
        if c.group != self.group:
            raise ValueError("chain coefficient group does not match the context")
        if self.window is not None:
            for p in c.support():
                if not self.window.contains(p):
                    raise ValueError(f"chain support leaves the window: {p}")


def flat_projection(x: Point, pair: FlatPair) -> Point:
    """Nearest point of the flat in the sup metric: zero the normal block.

    Nearest points are not unique in the sup metric; the coordinate
    projection is the canonical deterministic choice.
    """
    return pair.tangential_part(x) + (0,) * pair.codim


def cap_thom(c: _Chain, ctx: WrongWayContext) -> _Chain:
    """Cap a degree-k chain with the Thom class: degree drops by q.

    Each tuple contributes its crossing number times the truncated tuple
    (x_q, ..., x_k), still indexed by the ambient lattice.  An equivariant
    chain is capped representative-wise and keeps its action.
    """
    q = ctx.pair.codim
    if c.degree < q:
        raise ValueError(f"cannot cap a degree-{c.degree} chain with a degree-{q} class")
    ctx.check_chain(c)
    group = ctx.group

    def capped():
        for tup, coeff in c.terms.items():
            try:
                theta = thom_crossing(fill(tup[: q + 1]), ctx.pair, ctx.perturb)
            except DegeneratePosition as exc:
                raise DegeneratePosition(str(exc), simplex=exc.simplex, chain_tuple=tup) from None
            if theta == 0:
                continue
            yield tup[q:], group.scale(theta, coeff)

    return c._like(c.degree - q, _accumulate(group, capped()))


def wrong_way(c: UfChain, ctx: WrongWayContext) -> UfChain:
    """The composite map: cap with the Thom class, project, re-index.

    Output lives on the intrinsic (n-q)-dimensional lattice of the flat.
    """
    capped = cap_thom(c, ctx)
    target = LatticeSpace(ctx.pair.flat_dim)
    return push_tuplewise(capped, ctx.pair.tangential_part, target)


def sign_identity_residual(c: UfChain, ctx: WrongWayContext) -> UfChain:
    """boundary(wrong_way(c)) - (-1)^q * wrong_way(boundary(c)).

    Both sides are computed independently term-by-term; the contract is
    that the residual is the zero chain on every general-position input.
    """
    q = ctx.pair.codim
    if c.degree < q + 1:
        raise ValueError("sign identity needs degree >= q + 1")
    lhs = boundary(wrong_way(c, ctx))
    rhs = wrong_way(boundary(c), ctx).scale(-1 if q % 2 else 1)
    return lhs - rhs
