"""Frozen answers: bundled scenario reports and fundamental-class transports.

A change to a golden report must be intentional and recorded in
CHANGES.md.  Regenerate one with

    PYTHONPATH=src python -c "from coarse_chains.scenarios import *; \
print(canonical_dumps(run_scenario('t2-to-s1')), end='')" > tests/golden/t2-to-s1.report.json
"""

from pathlib import Path

import pytest

from coarse_chains.scenarios import ScenarioRun, canonical_dumps, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"

BUNDLED = ("t2-to-s1", "t3-to-s1", "t3-to-t2", "sign-identity-z3-q2")

# Class of the image of [T^n] in H_(n-q) of T^(n-q) for orientation +1;
# orientation -1 gives the negative.
TRANSPORT_CLASSES = {(2, 1): [-1], (3, 1): [-1], (3, 2): [1], (4, 1): [-1], (4, 2): [-1],
                     (4, 3): [-1]}


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_report_is_byte_identical_to_golden(name):
    golden = (GOLDEN / f"{name}.report.json").read_text()
    assert canonical_dumps(run_scenario(name)) == golden


@pytest.mark.parametrize("orientation", (1, -1))
@pytest.mark.parametrize("n,q", sorted(TRANSPORT_CLASSES))
def test_transport_class_is_pinned(n, q, orientation):
    config = {
        "name": f"transport-n{n}-q{q}",
        "pair": {"ambient_dim": n, "codim": q, "normal_orientation": orientation},
        "group": "Z",
        "window": {"lo": [-3] * n, "hi": [3] * n},
        "r_max": 1,
        "seed": 7,
        "perturb": True,
        "pipeline": [
            {"op": "kuhn_cycle"},
            {"op": "restrict_equivariance", "radius": 1},
            {"op": "equivariant_wrong_way"},
            {"op": "identify_class"},
        ],
    }
    result = ScenarioRun(config).run()["result"]
    assert result["degree"] == n - q
    assert result["class"] == [orientation * x for x in TRANSPORT_CLASSES[(n, q)]]
