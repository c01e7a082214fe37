"""Unit coverage for the verify battery's hooks and cheap checks.

The full battery runs in the acceptance tests; here the individual pieces
are exercised at small scale, including that the mutation context manager
really patches and restores the evaluation bindings.
"""

import json

from coarse_chains import FlatPair, LatticeSpace, thom_crossing, verify
from coarse_chains.chains import push_tuplewise
from coarse_chains.cli import main
from coarse_chains.verify import (
    _patched_thom_sign,
    check_fill_boundary,
    check_filling_independence,
    check_snf_cross,
    check_support_locality,
    check_transport,
)
from coarse_chains.wrongway import cap_thom


def test_patched_thom_sign_restores_bindings():
    pair = FlatPair(2, 1)
    down = [(0, 1), (0, -1)]
    assert thom_crossing(down, pair) == -1
    with _patched_thom_sign():
        from coarse_chains import geometry, wrongway, equivariant

        assert geometry.thom_crossing(down, pair) == 1
        assert wrongway.thom_crossing is geometry.thom_crossing
        assert equivariant.thom_crossing is geometry.thom_crossing
    assert thom_crossing(down, pair) == -1
    from coarse_chains import geometry

    assert geometry.thom_crossing is thom_crossing


def test_check_fill_boundary_passes():
    ok, detail = check_fill_boundary(1, 50)
    assert ok and "50" in detail


def test_check_snf_cross_clean_and_mutated():
    ok, _ = check_snf_cross(transpose_mutation=False)
    assert ok
    bad, detail = check_snf_cross(transpose_mutation=True)
    assert not bad
    assert "shape mismatch" in detail or "compose" in detail or "betti" in detail


def test_check_transport_reports_signs():
    ok, detail = check_transport()
    assert ok
    assert "T^2->T^1" in detail


def test_support_locality_catches_a_stretched_projection(monkeypatch):
    # The check bounds the propagation of wrong_way's output, which
    # wrong_way does not build in: a projection that doubles tangential
    # distances keeps the capped support local but must fail it.
    ok, detail, nontrivial = check_support_locality(5, 10)
    assert ok and nontrivial > 0
    assert detail == f"capped support within propagation of the flat on {10 * len(verify.PAIR_SET)} chains"

    def stretched(c, ctx):
        pair = ctx.pair
        return push_tuplewise(cap_thom(c, ctx),
                              lambda p: tuple(2 * x for x in pair.tangential_part(p)),
                              LatticeSpace(pair.flat_dim))

    monkeypatch.setattr(verify, "wrong_way", stretched)
    ok, detail, _ = check_support_locality(5, 10)
    assert not ok and detail.startswith("wrong-way propagation above")


def test_filling_independence_catches_the_thom_sign_mutation():
    # The dropped sign moves both representatives alike, so only the
    # orientation flip of the sheared representative can expose it.
    assert check_filling_independence() == (
        True, "class [-1] stable under a sheared representative")
    with _patched_thom_sign():
        ok, detail = check_filling_independence()
    assert not ok
    assert "orientation flip did not negate the sheared class: [-1] vs [-1]" in detail


def test_cli_verify_glue(tmp_path, capsys, monkeypatch):
    # The CLI prints one line per check, writes the canonical report, and
    # converts the pass flag into the exit code: 4, apart from a bad call's 1.
    import coarse_chains.cli as cli

    stub = {
        "suite": "coarse-chains-verify",
        "mutation": None,
        "checks": [
            {"name": "alpha", "status": "pass", "detail": "fine"},
            {"name": "beta", "status": "fail", "detail": "broken"},
        ],
        "passed": False,
    }
    monkeypatch.setattr(cli, "run_verify", lambda mutation=None: stub)
    out_path = tmp_path / "report.json"
    code = main(["verify", "--out", str(out_path)])
    assert code == 4 == cli.EXIT_CHECKS_FAILED
    printed = capsys.readouterr().out
    assert "PASS alpha: fine" in printed
    assert "FAIL beta: broken" in printed
    assert json.loads(out_path.read_text()) == stub


def test_cli_verify_failed_battery_with_unwritable_out_exits_1(tmp_path, capsys, monkeypatch):
    # A bad call keeps exit code 1 even when the battery also failed.
    import coarse_chains.cli as cli

    stub = {"checks": [{"name": "beta", "status": "fail", "detail": "broken"}],
            "passed": False}
    monkeypatch.setattr(cli, "run_verify", lambda mutation=None: stub)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["verify", "--out", str(blocker / "v.json")]) == 1
    captured = capsys.readouterr()
    assert "FAIL beta: broken" in captured.out
    assert captured.err.startswith(f"error: cannot write {blocker / 'v.json'}: ")
