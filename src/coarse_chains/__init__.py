"""Exact chain-level wrong-way maps on lattice model geometries."""

from .chains import ChainStats, UfChain, boundary, chain_stats, frechet_seminorm, push_tuplewise, uf_norm
from .coeffs import INTEGERS, INTEGERS_MOD_2, RATIONALS, CoefficientGroup, group_by_name
from .equivariant import (
    EquivariantChain,
    HomologyReport,
    QuotientComplex,
    TranslationAction,
    TruncationError,
    build_quotient_complex,
    equivariant_wrong_way,
    identify_class,
    kuhn_fundamental_cycle,
    restrict_equivariance,
    snf_homology,
)
from .geometry import (
    AffineSimplex,
    DegeneratePosition,
    FlatPair,
    cocycle_check,
    fill,
    orientation_sign,
    thom_crossing,
    thom_evaluate,
)
from .spaces import LatticeSpace, Window
from .wrongway import (
    WrongWayContext,
    cap_thom,
    flat_projection,
    sign_identity_residual,
    wrong_way,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSimplex",
    "ChainStats",
    "CoefficientGroup",
    "DegeneratePosition",
    "EquivariantChain",
    "FlatPair",
    "HomologyReport",
    "INTEGERS",
    "INTEGERS_MOD_2",
    "LatticeSpace",
    "QuotientComplex",
    "RATIONALS",
    "TranslationAction",
    "TruncationError",
    "UfChain",
    "Window",
    "WrongWayContext",
    "boundary",
    "build_quotient_complex",
    "cap_thom",
    "chain_stats",
    "cocycle_check",
    "equivariant_wrong_way",
    "fill",
    "flat_projection",
    "frechet_seminorm",
    "group_by_name",
    "identify_class",
    "kuhn_fundamental_cycle",
    "orientation_sign",
    "push_tuplewise",
    "restrict_equivariance",
    "sign_identity_residual",
    "snf_homology",
    "thom_crossing",
    "thom_evaluate",
    "uf_norm",
    "wrong_way",
]
