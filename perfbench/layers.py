"""Per-layer instrumentation of the traced run: what is wrapped and counted.

Functions are wrapped at every module attribute of the coarse_chains
package that refers to them (thom_crossing, for one, is imported into
wrongway and equivariant); methods are wrapped on their class.  Per-element
coefficient ops are not wrapped: that would swamp the run, so the coeffs
layer is measured through the per-group latency split instead.
"""

from __future__ import annotations

import sys
from types import ModuleType

from tracer import CountingHeapq, Tracer, self_times

# Span name -> (module, attribute path).  A dotted path names a method.
TARGETS = {
    "equivariant.normalize_tuple": ("equivariant", "TranslationAction.normalize_tuple"),
    "equivariant.build_quotient_complex": ("equivariant", "build_quotient_complex"),
    "equivariant.restrict_equivariance": ("equivariant", "restrict_equivariance"),
    "equivariant.equivariant_wrong_way": ("equivariant", "equivariant_wrong_way"),
    "equivariant.identify_class": ("equivariant", "identify_class"),
    "equivariant.snf_homology": ("equivariant", "snf_homology"),
    "intlinalg.rank_and_factors": ("intlinalg", "SparseIntMatrix.rank_and_factors"),
    "intlinalg.invariant_factors": ("intlinalg", "invariant_factors"),
    "intlinalg.snf_with_transforms": ("intlinalg", "snf_with_transforms"),
    "intlinalg.solve_int": ("intlinalg", "solve_int"),
    "intlinalg.kernel_basis": ("intlinalg", "kernel_basis"),
    "geometry.thom_crossing": ("geometry", "thom_crossing"),
    "chains.UfChain": ("chains", "UfChain.__init__"),
    "chains.boundary": ("chains", "boundary"),
    "chains.push_tuplewise": ("chains", "push_tuplewise"),
    "wrongway.cap_thom": ("wrongway", "cap_thom"),
    "wrongway.sign_identity_residual": ("wrongway", "sign_identity_residual"),
    "scenarios.ScenarioRun.run": ("scenarios", "ScenarioRun.run"),
}

# Spans whose self time is reported, as a share of the traced pass;
# invariant_factors is wrapped only to measure the dense core.
SELF_SHARES = tuple(name for name in TARGETS if name != "intlinalg.invariant_factors")

# Per-layer metrics as printed: name -> unit.  Self times are shares of the
# traced pass's wall time, so a layer a workload never reaches reads 0.
PER_LAYER = {
    "equivariant.normalize_tuple.calls": "count",
    "equivariant.quotient.basis_terms": "count",
    "equivariant.quotient.nnz": "count",
    "equivariant.restrict_equivariance.terms_out": "count",
    "homology.ordered_share": "ratio",
    "intlinalg.rank_and_factors.unit_pivots": "count",
    "intlinalg.rank_and_factors.heap_pops": "count",
    "intlinalg.rank_and_factors.pivot_yield": "ratio",
    "intlinalg.dense_core.rows": "count",
    "intlinalg.dense_core.cols": "count",
    "intlinalg.snf_with_transforms.calls": "count",
    "intlinalg.snf_with_transforms.max_entry_bits": "bits",
    "intlinalg.solve_int.calls": "count",
    "geometry.thom_crossing.calls": "count",
    "geometry.thom_crossing.perturbed_calls": "count",
    "geometry.thom_crossing.nonzero": "count",
    "geometry.thom_crossing.degenerate": "count",
    "geometry.thom_crossing.decided_ratio": "ratio",
    "chains.UfChain.calls": "count",
    "chains.boundary.calls": "count",
    "chains.boundary.terms_out": "count",
    "wrongway.cap_thom.calls": "count",
    "wrongway.cap_thom.kept_ratio": "ratio",
    "wrongway.nontrivial_ratio": "ratio",
    "wrongway.rejected": "count",
    "coeffs.op_p50_ratio.Z": "ratio",
    "coeffs.op_p50_ratio.Z2": "ratio",
    "coeffs.op_p50_ratio.Q": "ratio",
    "trace.overhead_ratio": "ratio",
    **{name + ".self_share": "ratio" for name in SELF_SHARES},
}


def _resolve(module: ModuleType, path: str):
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr, vars(holder)[attr]


class Installed:
    """What install() put in place: the heap-pop counter, the targets it could
    not find, and one record per sparse reduction (rows, cols, rank, pops)."""

    def __init__(self) -> None:
        self.heap: CountingHeapq | None = None
        self.missing: list[str] = []
        self.reductions: list[tuple[int, int, int, int]] = []


def install(tracer: Tracer, package: str = "coarse_chains") -> Installed:
    """Wrap every target of TARGETS and count heap pops in intlinalg."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    geometry = sys.modules[package + ".geometry"]
    intlinalg = sys.modules[package + ".intlinalg"]
    out = Installed()
    if isinstance(getattr(intlinalg, "heapq", None), ModuleType):
        out.heap = CountingHeapq(intlinalg.heapq)
        tracer.replace(intlinalg, "heapq", out.heap)
    else:
        out.missing.append("intlinalg.heapq")
    popped = [0]

    def on_thom(counts, args, kwargs, result, error):
        perturb = args[2] if len(args) > 2 else kwargs.get("perturb", False)
        counts["geometry.thom_crossing.perturbed_calls"] += bool(perturb)
        counts["geometry.thom_crossing.nonzero"] += bool(result)
        counts["geometry.thom_crossing.degenerate"] += isinstance(
            error, geometry.DegeneratePosition)

    def on_boundary(counts, args, kwargs, result, error):
        if result is not None:
            counts["chains.boundary.terms_out"] += len(result.terms)

    def on_cap(counts, args, kwargs, result, error):
        if result is not None:
            counts["wrongway.cap_thom.terms_in"] += len(args[0].terms)
            counts["wrongway.cap_thom.terms_out"] += len(result.terms)

    def on_restrict(counts, args, kwargs, result, error):
        if result is not None:
            counts["equivariant.restrict_equivariance.terms_out"] += len(result.terms)

    def on_build(counts, args, kwargs, result, error):
        if result is not None:
            counts["equivariant.quotient.basis_terms"] += sum(map(len, result.bases.values()))
            counts["equivariant.quotient.nnz"] += sum(m.nnz() for m in result.matrices.values())

    def on_rank(counts, args, kwargs, result, error):
        pops = out.heap.pops if out.heap is not None else 0
        if result is not None:
            counts["intlinalg.rank_and_factors.factors"] += len(result[1])
            out.reductions.append((args[0].nrows, args[0].ncols, result[0], pops - popped[0]))
        popped[0] = pops

    def on_invariant(counts, args, kwargs, result, error):
        # Called from rank_and_factors, its input is the dense core left
        # once every unit pivot is gone.
        if result is not None and tracer.current() == "intlinalg.rank_and_factors":
            core = args[0]
            counts["intlinalg.dense_core.rows"] += len(core)
            counts["intlinalg.dense_core.cols"] += len(core[0]) if core else 0
            counts["intlinalg.dense_core.factors"] += len(result)

    def on_snf(counts, args, kwargs, result, error):
        if result is not None:
            bits = max((abs(x).bit_length() for m in result for row in m for x in row),
                       default=0)
            key = "intlinalg.snf_with_transforms.max_entry_bits"
            counts[key] = max(counts[key], bits)

    observers = {
        "geometry.thom_crossing": on_thom,
        "chains.boundary": on_boundary,
        "wrongway.cap_thom": on_cap,
        "equivariant.restrict_equivariance": on_restrict,
        "equivariant.build_quotient_complex": on_build,
        "intlinalg.rank_and_factors": on_rank,
        "intlinalg.invariant_factors": on_invariant,
        "intlinalg.snf_with_transforms": on_snf,
    }
    for name, (mod_name, path) in TARGETS.items():
        module = sys.modules.get(f"{package}.{mod_name}")
        try:
            holder, attr, original = _resolve(module, path)
        except (AttributeError, KeyError, TypeError):
            out.missing.append(name)
            continue
        if isinstance(holder, type):
            tracer.wrap_method(holder, attr, name, observers.get(name))
        else:
            tracer.wrap_function(modules, original, name, observers.get(name))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, installed: Installed, traced_wall: float,
                      extra: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values, and the absolute self seconds behind the shares."""
    counts = tracer.counts
    selfs = self_times(tracer.spans)
    pops = installed.heap.pops if installed.heap is not None else 0
    unit_pivots = (counts["intlinalg.rank_and_factors.factors"]
                   - counts["intlinalg.dense_core.factors"])
    thom_calls = counts["geometry.thom_crossing.calls"]
    values = {name: counts.get(name, 0) for name in PER_LAYER}
    values.update({
        "intlinalg.rank_and_factors.unit_pivots": unit_pivots,
        "intlinalg.rank_and_factors.heap_pops": pops,
        "intlinalg.rank_and_factors.pivot_yield": _ratio(unit_pivots, pops),
        "geometry.thom_crossing.decided_ratio": _ratio(
            thom_calls - counts["geometry.thom_crossing.degenerate"], thom_calls),
        "wrongway.cap_thom.kept_ratio": _ratio(
            counts["wrongway.cap_thom.terms_out"], counts["wrongway.cap_thom.terms_in"]),
    })
    for name in SELF_SHARES:
        values[name + ".self_share"] = _ratio(selfs.get(name, 0.0), traced_wall)
    values.update(extra)
    return values, {name: selfs.get(name, 0.0) for name in SELF_SHARES}
