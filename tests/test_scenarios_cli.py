import json
import random
import re
import subprocess
import sys

import pytest

from coarse_chains import INTEGERS, FlatPair, LatticeSpace, UfChain
from coarse_chains.cli import main
from coarse_chains.sampling import general_position_chain
from coarse_chains.scenarios import (
    ScenarioError,
    ScenarioRun,
    canonical_dumps,
    load_scenario,
    run_scenario,
)
from coarse_chains.wrongway import WrongWayContext
from test_golden import BUNDLED, GOLDEN


def test_bundled_scenario_resolution():
    config = load_scenario("t2-to-s1")
    assert config["name"] == "t2-to-s1"
    assert config["perturb"] is True
    with pytest.raises(ScenarioError):
        load_scenario("no-such-scenario")


def test_missing_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ScenarioError, match="missing required keys"):
        load_scenario(path)


def test_t2_to_s1_report():
    report = run_scenario("t2-to-s1")
    assert report["scenario"]["name"] == "t2-to-s1"
    ops = [step["op"] for step in report["steps"]]
    assert ops == ["kuhn_cycle", "restrict_equivariance",
                   "equivariant_wrong_way", "identify_class"]
    assert report["result"]["class"] in ([1], [-1])
    assert report["result"]["degree"] == 1
    # every intermediate step reports the running chain summary
    assert report["steps"][0]["current"]["kind"] == "equivariant-chain"


@pytest.mark.parametrize("name,expected_degree", [("t3-to-t2", 2), ("t3-to-s1", 1)])
def test_t3_transport_reports(name, expected_degree):
    report = run_scenario(name)
    assert report["result"]["class"] in ([1], [-1])
    assert report["result"]["degree"] == expected_degree


def test_sign_identity_scenario_residual_zero():
    report = run_scenario("sign-identity-z3-q2")
    for step in report["steps"]:
        assert step["max_residual_sup_norm"] == "0/1"
        assert step["chains"] == 100


def test_reports_are_byte_identical():
    a = canonical_dumps(run_scenario("t2-to-s1"))
    b = canonical_dumps(run_scenario("t2-to-s1"))
    assert a == b
    c = canonical_dumps(run_scenario("sign-identity-z3-q2"))
    d = canonical_dumps(run_scenario("sign-identity-z3-q2"))
    assert c == d


def test_custom_pipeline_with_plain_chain(tmp_path):
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, -1), (0, 1)): 1})
    scenario = {
        "name": "custom",
        "pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": 1},
        "group": "Z",
        "window": {"lo": [-4, -4], "hi": [4, 4]},
        "r_max": 1,
        "seed": 3,
        "perturb": False,
        "pipeline": [
            {"op": "load_chain", "chain": chain.to_json()},
            {"op": "chain_stats", "radii": [0, 1]},
            {"op": "norms", "max_power": 2},
            {"op": "wrong_way"},
        ],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(scenario))
    report = run_scenario(path)
    stats = report["steps"][1]["stats"]
    assert stats["propagation"] == 2
    norms = report["steps"][2]["uf_norms"]
    assert norms["0"] == "1/1" and norms["1"] == "2/1" and norms["2"] == "4/1"
    assert report["steps"][3]["current"]["degree"] == 0


# -- command line ---------------------------------------------------------------

def test_cli_run_writes_report(tmp_path):
    code = main(["run", "t2-to-s1", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "t2-to-s1.report.json").read_text())
    assert report["result"]["class"] in ([1], [-1])


def test_cli_run_parallel_scenarios(tmp_path):
    code = main(["run", "t2-to-s1", "t3-to-s1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "t2-to-s1.report.json").exists()
    assert (tmp_path / "t3-to-s1.report.json").exists()


def test_cli_run_all_bundled_in_order_matches_golden(tmp_path, capsys):
    # One call runs every bundled scenario in one process, in the order
    # given: each report is byte-identical to its golden, and stderr names
    # the scenarios in that order.
    assert main(["run", *BUNDLED, "--out-dir", str(tmp_path)]) == 0
    for name in BUNDLED:
        assert ((tmp_path / f"{name}.report.json").read_text()
                == (GOLDEN / f"{name}.report.json").read_text())
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"scenario {name}" for name in BUNDLED]


def test_cli_run_logs_a_nonzero_time_for_each_bundled_scenario(tmp_path, capsys):
    assert main(["run", *BUNDLED, "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    times = [re.fullmatch(r"scenario .*\((\d+\.\d) ms\)", line) for line in lines]
    assert len(times) == len(BUNDLED)
    assert all(match and float(match.group(1)) > 0 for match in times), lines


def test_cli_run_refuses_repeated_scenario_names(tmp_path, capsys):
    # The same bundled name twice, and a file that reuses a bundled name.
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(load_scenario("t2-to-s1")))
    for scenarios in (["t2-to-s1", "t2-to-s1"], ["t3-to-s1", "t2-to-s1", str(copy)]):
        out_dir = tmp_path / "out"
        assert main(["run", *scenarios, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == "error: scenario name 't2-to-s1' is given twice; " \
                      "each scenario writes the report named after it\n"
        assert not out_dir.exists()


def test_cli_run_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_bad_step_parameter_exits_1(tmp_path, capsys):
    scenario = {
        "name": "badstep",
        "pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": 1},
        "group": "Z",
        "window": {"lo": [-3, -3], "hi": [3, 3]},
        "r_max": 1,
        "seed": 0,
        "perturb": True,
        "pipeline": [
            {"op": "kuhn_cycle"},
            {"op": "restrict_equivariance", "radius": "abc"},
        ],
    }
    path = tmp_path / "badstep.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 1
    assert "restrict_equivariance" in capsys.readouterr().err


def test_cli_run_degenerate_exits_2(tmp_path, capsys):
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, 0), (1, 0)): 1})
    scenario = {
        "name": "degenerate",
        "pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": 1},
        "group": "Z",
        "window": {"lo": [-4, -4], "hi": [4, 4]},
        "r_max": 1,
        "seed": 0,
        "perturb": False,
        "pipeline": [
            {"op": "load_chain", "chain": chain.to_json()},
            {"op": "wrong_way"},
        ],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "degenerate-position"
    assert err["tuple"] == [[0, 0], [1, 0]]
    assert err["simplex"] == {"ambient_dim": 2, "vertices": [["0/1", "0/1"], ["1/1", "0/1"]]}


def test_cli_run_truncation_exits_3(tmp_path, capsys):
    scenario = {
        "name": "truncated",
        "pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": 1},
        "group": "Z",
        "window": {"lo": [-3, -3], "hi": [3, 3]},
        "r_max": 1,
        "seed": 0,
        "perturb": True,
        "pipeline": [
            {"op": "kuhn_cycle"},
            {"op": "restrict_equivariance", "radius": 0},
        ],
    }
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "truncation"


def test_cli_wrongway_round_trip(tmp_path):
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, -1), (0, 1)): 1})
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(json.dumps(chain.to_json()))
    code = main(["wrongway", "--pair", "2,1", "--in", str(infile),
                 "--out", str(outfile)])
    assert code == 0
    image = UfChain.from_json(json.loads(outfile.read_text()))
    assert image.terms == {((0,),): 1}
    assert image.space == LatticeSpace(1)


def test_cli_wrongway_orientation_flip(tmp_path):
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, -1), (0, 1)): 1})
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(json.dumps(chain.to_json()))
    main(["wrongway", "--pair", "2,1", "--orientation", "-1",
          "--in", str(infile), "--out", str(outfile)])
    image = UfChain.from_json(json.loads(outfile.read_text()))
    assert image.terms == {((0,),): -1}


def test_cli_wrongway_bad_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["wrongway", "--pair", "2,1", "--in", str(bad),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert main(["wrongway", "--pair", "oops", "--in", str(bad),
                 "--out", str(tmp_path / "o.json")]) == 1
    capsys.readouterr()


def test_cli_wrongway_degenerate_exit(tmp_path, capsys):
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, 0), (1, 1)): 1})
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(chain.to_json()))
    code = main(["wrongway", "--pair", "2,1", "--in", str(infile),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "degenerate-position"
    assert err["tuple"] == [[0, 0], [1, 1]]
    # the same input succeeds under symbolic perturbation
    code = main(["wrongway", "--pair", "2,1", "--perturb", "--in", str(infile),
                 "--out", str(tmp_path / "o.json")])
    assert code == 0


def test_cli_homology_torus(tmp_path, capsys):
    code = main(["homology", "--torus", "2", "--rmax", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    betti = {e["degree"]: e["betti"] for e in payload["homology"]}
    assert betti == {0: 1, 1: 2, 2: 1}
    assert all(e["torsion"] == [] for e in payload["homology"])


def test_cli_homology_refuses_an_oversized_torus(capsys, no_enumeration):
    # The ordered T^4 basis has 63^4 tuples in degree 5: refused, exit 3.
    assert main(["homology", "--torus", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "truncation"
    assert "15752961 tuples" in err["detail"] and "cap of 1000000" in err["detail"]


def test_cli_homology_oriented_t4_stays_under_the_cap(capsys):
    assert main(["homology", "--torus", "4", "--no-degenerate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["betti"] for e in payload["homology"]] == [1, 4, 6, 4, 1]
    assert payload["basis_sizes"]["5"] == 7896


def test_cli_homology_oriented_basis(capsys):
    code = main(["homology", "--torus", "2", "--rmax", "1", "--no-degenerate"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    betti = {e["degree"]: e["betti"] for e in payload["homology"]}
    assert betti == {0: 1, 1: 2, 2: 1}
    assert payload["basis_sizes"] == {"0": 1, "1": 4, "2": 4, "3": 1}


def test_console_script_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "coarse_chains.cli", "run", "t2-to-s1",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "t2-to-s1.report.json").read_text())
    assert report["result"]["class"] in ([1], [-1])


def test_console_script_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "coarse_chains.cli", "homology", "--torus", "abc"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert "error: argument --torus: invalid int value: 'abc'" in result.stderr


USAGE_ERRORS = {
    "non-integer torus": ["homology", "--torus", "abc"],
    "missing torus": ["homology"],
    "unknown mutation": ["verify", "--mutate", "nope"],
    "unknown subcommand": ["nope"],
    "removed max-degree": ["homology", "--torus", "1", "--max-degree", "0"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_errors_exit_1(capsys, name):
    with pytest.raises(SystemExit) as exc_info:
        main(USAGE_ERRORS[name])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and lines[0].startswith("usage: coarse-chains")
    assert [line for line in lines if ": error: " in line] == lines[-1:]
    assert lines[-1].startswith("coarse-chains")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["homology", "--help"])
    assert exc_info.value.code == 0
    assert "--max-degree" not in capsys.readouterr().out


# -- input hardening --------------------------------------------------------------

def _sign_identity_scenario(tmp_path, terms, count=50):
    scenario = {
        "name": f"sign-identity-terms{terms}",
        "pair": {"ambient_dim": 3, "codim": 2, "normal_orientation": 1},
        "group": "Z",
        "window": {"lo": [-6, -6, -6], "hi": [6, 6, 6]},
        "r_max": 1,
        "seed": 7,
        "perturb": False,
        "pipeline": [
            {"op": "sign_identity", "count": count, "degree": 3,
             "terms": terms, "spread": 0, "box": 0},
        ],
    }
    path = tmp_path / f"terms{terms}-count{count}.json"
    path.write_text(json.dumps(scenario))
    return path


def test_sign_identity_without_usable_draws_stops_at_the_cap(tmp_path, capsys):
    # One term at the origin is always in degenerate position: the rejection
    # loop must end at its cap instead of running forever.
    assert main(["run", str(_sign_identity_scenario(tmp_path, 1))]) == 1
    err = capsys.readouterr().err
    assert "step 0 (sign_identity)" in err
    assert "in 100 attempts, with 0 of 50 chains checked" in err


def test_sign_identity_does_not_count_zero_chains(tmp_path):
    # Three terms at the origin are degenerate or cancel to the zero chain;
    # zero chains are rejections, so there is nothing to check.
    with pytest.raises(ScenarioError, match="0 of 50 chains checked"):
        run_scenario(_sign_identity_scenario(tmp_path, 3))


def _sampled_sign_identity(monkeypatch, group, step):
    """Run one sign_identity step; return its record and the chains it checked."""
    drawn = []

    def spy(*args, **kwargs):
        chain, residual, draws = general_position_chain(*args, **kwargs)
        drawn.append(chain)
        return chain, residual, draws

    monkeypatch.setattr("coarse_chains.scenarios.general_position_chain", spy)
    config = load_scenario("t2-to-s1")
    config.update(group=group, perturb=False, pipeline=[{"op": "sign_identity", **step}])
    return ScenarioRun(config).run()["result"], drawn


def test_sign_identity_over_q_checks_fractional_coefficients(monkeypatch):
    result, drawn = _sampled_sign_identity(monkeypatch, "Q", {"count": 20, "degree": 2})
    assert result["chains"] == 20 and result["max_residual_sup_norm"] == "0/1"
    assert any(coeff.denominator > 1 for c in drawn for coeff in c.terms.values())


def test_sign_identity_step_draws_what_the_sampler_draws(monkeypatch):
    step = {"count": 30, "degree": 3, "terms": 3, "spread": 1, "box": 2}
    result, drawn = _sampled_sign_identity(monkeypatch, "Z", step)
    rng = random.Random(load_scenario("t2-to-s1")["seed"])
    ctx = WrongWayContext(FlatPair(2, 1), INTEGERS)
    expected = [general_position_chain(rng, FlatPair(2, 1), 3, ctx, 3, 2, 1) for _ in range(30)]
    assert drawn == [c for c, _, _ in expected]
    assert result["attempts"] == sum(draws for _, _, draws in expected) > 30


@pytest.mark.parametrize("count", [0, -3])
def test_sign_identity_needs_a_positive_count(tmp_path, count):
    with pytest.raises(ScenarioError, match="count >= 1"):
        run_scenario(_sign_identity_scenario(tmp_path, 2, count))


def test_window_dimension_must_match_pair(tmp_path, capsys):
    config = load_scenario("t3-to-s1")
    config["window"] = {"lo": [-3, -3], "hi": [3, 3]}
    path = tmp_path / "flat-window.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ScenarioError, match="window has dimension 2"):
        run_scenario(path)
    assert main(["run", str(path)]) == 1
    assert "window has dimension 2" in capsys.readouterr().err


def test_cli_homology_bad_rmax_exits_1(capsys):
    assert main(["homology", "--torus", "2", "--rmax", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _one_write_error(err, path):
    return err == err.splitlines()[0] + "\n" and err.startswith(f"error: cannot write {path}: ")


def test_cli_unwritable_outputs_exit_1(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["run", "t2-to-s1", "--out-dir", str(blocker)]) == 1
    assert _one_write_error(capsys.readouterr().err, blocker / "t2-to-s1.report.json")
    monkeypatch.setattr("coarse_chains.cli.run_verify",
                        lambda mutation: {"checks": [], "passed": True})
    assert main(["verify", "--out", str(blocker / "v.json")]) == 1
    assert _one_write_error(capsys.readouterr().err, blocker / "v.json")
    assert main(["homology", "--torus", "1", "--out", str(blocker / "h.json")]) == 1
    assert _one_write_error(capsys.readouterr().err, blocker / "h.json")
    chain = UfChain(1, LatticeSpace(2), INTEGERS, {((0, -1), (0, 1)): 1})
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(chain.to_json()))
    assert main(["wrongway", "--pair", "2,1", "--in", str(infile),
                 "--out", str(blocker / "o.json")]) == 1
    assert _one_write_error(capsys.readouterr().err, blocker / "o.json")
    # Missing parent directories are created, as for --out-dir.
    nested = tmp_path / "new" / "dir" / "h.json"
    assert main(["homology", "--torus", "1", "--out", str(nested)]) == 0
    assert json.loads(nested.read_text())["torus"] == 1


def test_cli_run_unwritable_report_keeps_the_other_exit_codes(tmp_path, capfd):
    # A directory where t3-to-s1's report should go fails that scenario only.
    (tmp_path / "t3-to-s1.report.json").mkdir()
    assert main(["run", "t2-to-s1", "t3-to-s1", "--out-dir", str(tmp_path)]) == 1
    err = capfd.readouterr().err
    assert f"error: cannot write {tmp_path / 't3-to-s1.report.json'}: " in err
    assert "Traceback" not in err
    assert json.loads((tmp_path / "t2-to-s1.report.json").read_text())["result"]["class"]


def _q_chain_json(**changes):
    data = {"degree": 1, "space": {"kind": "lattice", "dim": 2}, "group": "Q",
            "terms": [{"coeff": "1/2", "tuple": [[0, -1], [0, 1]]}]}
    data.update(changes)
    return data


MALFORMED_CHAINS = {
    "top-level list": [],
    "terms not a list": _q_chain_json(terms=5),
    "zero denominator": _q_chain_json(terms=[{"coeff": "1/0", "tuple": [[0, -1], [0, 1]]}]),
    "boolean coefficient": _q_chain_json(
        group="Z", terms=[{"coeff": True, "tuple": [[0, -1], [0, 1]]}]),
    "boolean coordinate": _q_chain_json(terms=[{"coeff": "1/2", "tuple": [[0, -1], [0, True]]}]),
    "term not an object": _q_chain_json(terms=[[[0, -1], [0, 1]]]),
    "missing space": {"degree": 1, "group": "Q", "terms": []},
    "boolean dimension": _q_chain_json(space={"kind": "lattice", "dim": True},
                                       terms=[{"coeff": "1/2", "tuple": [[0], [1]]}]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHAINS))
def test_cli_wrongway_malformed_chain_exits_1(tmp_path, capsys, name):
    infile = tmp_path / "c.json"
    infile.write_text(json.dumps(MALFORMED_CHAINS[name]))
    with pytest.raises(ValueError):
        UfChain.from_json(MALFORMED_CHAINS[name])
    assert main(["wrongway", "--pair", "2,1", "--in", str(infile),
                 "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read chain") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(MALFORMED_CHAINS))
def test_scenario_load_chain_rejects_malformed_chain(tmp_path, capsys, name):
    scenario = {
        "name": "load-bad-chain",
        "pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": 1},
        "group": "Q",
        "window": {"lo": [-3, -3], "hi": [3, 3]},
        "r_max": 1,
        "seed": 0,
        "perturb": False,
        "pipeline": [{"op": "load_chain", "chain": MALFORMED_CHAINS[name]}],
    }
    path = tmp_path / "load-bad-chain.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(ScenarioError, match="step 0 \\(load_chain\\)"):
        run_scenario(path)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: step 0 (load_chain)")


NON_INTEGER_CONFIGS = {
    "float and boolean pair": {"pair": {"ambient_dim": 2.7, "codim": True}},
    "float orientation": {"pair": {"ambient_dim": 2, "codim": 1, "normal_orientation": -1.0}},
    "string window bound": {"window": {"lo": [-3, -3], "hi": [3, "3"]}},
    "fractional window bound": {"window": {"lo": [-3, -1.5], "hi": [3, 3]}},
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CONFIGS))
def test_scenario_configuration_needs_integers(tmp_path, capsys, name):
    config = load_scenario("t2-to-s1")
    config.update(NON_INTEGER_CONFIGS[name])
    path = tmp_path / "non-integer.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ScenarioError, match="must be an integer"):
        run_scenario(path)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario configuration") and err.count("\n") == 1


_LOAD_CHAIN = {"op": "load_chain",
               "chain": UfChain(1, LatticeSpace(2), INTEGERS, {((0, -1), (0, 1)): 1}).to_json()}

STRICT_CONFIGS = {
    "string perturb": ({"perturb": "false"}, "bad scenario configuration: perturb must be a boolean"),
    "integer perturb": ({"perturb": 0}, "bad scenario configuration: perturb must be a boolean"),
    "float r_max": ({"r_max": 1.9}, "bad scenario configuration: r_max must be an integer"),
    "boolean seed": ({"seed": True}, "bad scenario configuration: seed must be an integer"),
    "float radius": (
        {"pipeline": [{"op": "kuhn_cycle"}, {"op": "restrict_equivariance", "radius": 1.7}]},
        r"step 1 \(restrict_equivariance\): radius must be an integer"),
    "string torus": ({"pipeline": [{"op": "homology", "torus": "2"}]},
                     r"step 0 \(homology\): torus must be an integer"),
    "float count": ({"pipeline": [{"op": "sign_identity", "count": 2.0, "degree": 2}]},
                    r"step 0 \(sign_identity\): count must be an integer"),
    "boolean box": ({"pipeline": [{"op": "sign_identity", "count": 2, "degree": 2, "box": True}]},
                    r"step 0 \(sign_identity\): box must be an integer"),
    "zero terms": ({"pipeline": [{"op": "sign_identity", "count": 2, "degree": 2, "terms": 0}]},
                   r"step 0 \(sign_identity\): sign_identity needs terms >= 1"),
    "negative spread": ({"pipeline": [{"op": "sign_identity", "count": 2, "degree": 2,
                                       "spread": -1}]},
                        r"step 0 \(sign_identity\): sign_identity needs spread >= 0"),
    "negative box": ({"pipeline": [{"op": "sign_identity", "count": 2, "degree": 2, "box": -1}]},
                     r"step 0 \(sign_identity\): sign_identity needs box >= 0"),
    "negative max_power": ({"pipeline": [_LOAD_CHAIN, {"op": "norms", "max_power": -1}]},
                           r"step 1 \(norms\): norms needs max_power >= 0"),
    "negative radius": ({"pipeline": [_LOAD_CHAIN, {"op": "chain_stats", "radii": [0, -1]}]},
                        r"step 1 \(chain_stats\): chain_stats needs radii >= 0"),
}


@pytest.mark.parametrize("name", sorted(STRICT_CONFIGS))
def test_scenario_values_are_read_strictly(tmp_path, capsys, name):
    overrides, message = STRICT_CONFIGS[name]
    config = load_scenario("t2-to-s1")
    config.update(overrides)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ScenarioError, match=message):
        run_scenario(path)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_SHAPES = {
    "integer pipeline": ({"pipeline": 5}, "pipeline must be a list of steps"),
    "object pipeline": ({"pipeline": {"op": "kuhn_cycle"}}, "pipeline must be a list of steps"),
    "integer op": ({"pipeline": [{"op": 5}]}, "pipeline step 0 must be an object with a string 'op'"),
    "list step": ({"pipeline": [["kuhn_cycle"]]}, "pipeline step 0 must be an object"),
    "parent-directory name": ({"name": "../escape"}, "name must be letters"),
    "nested name": ({"name": "a/b"}, "name must be letters"),
    "hidden name": ({"name": ".hidden"}, "name must be letters"),
    "empty name": ({"name": ""}, "name must be letters"),
    "list name": ({"name": ["x"]}, "name must be letters"),
    "non-ascii name": ({"name": "tést"}, "name must be letters"),
}


@pytest.mark.parametrize("name", sorted(BAD_SHAPES))
def test_scenario_name_and_pipeline_shape_are_checked(tmp_path, capsys, name):
    overrides, message = BAD_SHAPES[name]
    config = load_scenario("t2-to-s1")
    config.update(overrides)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ScenarioError, match=message):
        run_scenario(path)
    out_dir = tmp_path / "out" / "reports"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(p.name.endswith(".report.json") for p in tmp_path.rglob("*"))


def test_bundled_scenario_names_are_accepted():
    for name in ("t2-to-s1", "t3-to-t2", "t3-to-s1", "sign-identity-z3-q2"):
        config = load_scenario(name)
        assert config["name"] == name
        ScenarioRun(config)
    config["name"] = "run_2.v1-final"
    ScenarioRun(config)
