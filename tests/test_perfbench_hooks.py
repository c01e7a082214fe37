"""The benchmark's traced run wraps functions at fixed names in the package.

perfbench/layers.py lists them in TARGETS, and perfbench/tests/test_helpers.py
watches the import sites the wrappers patch.  Outside TARGETS, the traced run
swaps `intlinalg.heapq` for a pop counter, reads `nnz()` of a built complex's
`matrices` and `nrows` and `ncols` of each matrix handed to
`rank_and_factors`, and its self-test calls `rank_and_factors()` with no
arguments on each of a complex's `matrices`.  Its reduction counters read
only what goes through `rank_and_factors`, so homology ranks must be read
through it, once per stored coboundary.  A refactor that moves one of them
would only show as a traced run that is not `correct`; these tests make it
fail here instead.  Both files are read, never changed.
"""

import ast
import heapq
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import coarse_chains
from coarse_chains import intlinalg
from coarse_chains.equivariant import TranslationAction, build_quotient_complex
from coarse_chains.intlinalg import SparseIntMatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def _watched_sites() -> list[tuple[str, str]]:
    """(owner expression, attribute) pairs of the `watched` list in test_helpers.py."""
    tree = ast.parse((PERFBENCH / "tests" / "test_helpers.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "watched"):
            return [(ast.unparse(owner), ast.literal_eval(attr))
                    for owner, attr in (item.elts for item in node.value.elts)]
    raise AssertionError("test_helpers.py has no `watched` list")


layers = _load_layers()


@pytest.mark.parametrize("name", sorted(layers.TARGETS))
def test_traced_target_resolves(name):
    mod_name, path = layers.TARGETS[name]
    module = importlib.import_module(f"coarse_chains.{mod_name}")
    holder, attr, original = layers._resolve(module, path)
    assert callable(original), f"{name}: {mod_name}.{path} is not callable"


def test_watched_import_sites_resolve():
    sites = _watched_sites()
    assert sites
    for owner_expr, attr in sites:
        head, *rest = owner_expr.split(".")
        owner = (coarse_chains if head == "coarse_chains"
                 else importlib.import_module(f"coarse_chains.{head}"))
        for part in rest:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{owner_expr}.{attr} is not bound"


def test_intlinalg_heapq_is_the_heapq_module():
    assert intlinalg.heapq is heapq


def test_quotient_matrices_carry_what_the_traced_run_reads():
    qc = build_quotient_complex(TranslationAction.standard(2), 1, range(4))
    assert sorted(qc.matrices) == [1, 2, 3]
    for d, m in qc.matrices.items():
        assert isinstance(m, SparseIntMatrix)
        # The coboundary d_d^T: C_{d-1} -> C_d.
        assert (m.nrows, m.ncols) == (qc.basis_size(d), qc.basis_size(d - 1))
        rank, factors = m.rank_and_factors()
        assert rank == len(factors) <= m.nnz()
    assert sum(m.nnz() for m in qc.matrices.values()) > 0


def test_ranks_are_read_through_rank_and_factors(monkeypatch):
    # Also when the classes made the reductions first, with their transforms.
    calls = []
    original = SparseIntMatrix.rank_and_factors

    def spy(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(SparseIntMatrix, "rank_and_factors", spy)
    for classes_first in (False, True):
        calls.clear()
        qc = build_quotient_complex(TranslationAction.standard(1), 2, range(3))
        if classes_first:
            for d in (0, 1):
                qc.reduction.class_coordinates(d, {})
        assert not calls
        ranks = qc.reduction.ranks
        assert [id(m) for m in calls] == [id(m) for _, m in sorted(qc.matrices.items())]
        assert ranks == {d: original(m) for d, m in qc.matrices.items()}
