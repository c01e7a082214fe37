"""Scenario files: reproducible pipelines with machine-readable reports.

A scenario fixes every knob explicitly (pair, group, window, spread bound,
seed, perturbation) and lists a pipeline of operations.  Reports echo the
full configuration and are byte-stable across reruns; wall-clock timing
goes to stderr, never into the report.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any

from .chains import UfChain, boundary, chain_stats, frechet_seminorm, uf_norm
from .coeffs import RATIONALS, group_by_name
from .equivariant import (
    EquivariantChain,
    TranslationAction,
    TruncationError,
    build_quotient_complex,
    equivariant_wrong_way,
    identify_class,
    kuhn_fundamental_cycle,
    restrict_equivariance,
    snf_homology,
)
from .geometry import DegeneratePosition, FlatPair
from .sampling import general_position_chain
from .spaces import Window, json_int
from .wrongway import WrongWayContext, wrong_way

REQUIRED_KEYS = ("name", "pair", "group", "window", "r_max", "seed", "perturb", "pipeline")

# The name becomes the report's file name, so it may not hold a path.
SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


class ScenarioError(ValueError):
    """Malformed scenario file or configuration."""


def canonical_dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_scenario(source: str | Path) -> dict:
    """Load a scenario from a path or a bundled scenario name."""
    text = None
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {source}: {exc}") from None
    else:
        bundled = resources.files("coarse_chains").joinpath("scenarios", f"{source}.json")
        try:
            text = bundled.read_text()
        except (FileNotFoundError, OSError):
            raise ScenarioError(f"no scenario file or bundled scenario named {source!r}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {source} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    missing = [k for k in REQUIRED_KEYS if k not in data]
    if missing:
        raise ScenarioError(f"scenario is missing required keys: {missing}")
    return data


def _chain_summary(obj: UfChain | EquivariantChain) -> dict:
    if isinstance(obj, EquivariantChain):
        return {
            "kind": "equivariant-chain",
            "degree": obj.degree,
            "orbit_terms": len(obj.terms),
            "propagation": obj.propagation(),
        }
    return {
        "kind": "chain",
        "degree": obj.degree,
        "terms": len(obj.terms),
        "propagation": obj.propagation(),
        "sup_norm": RATIONALS.to_json(uf_norm(obj, 0)),
    }


class ScenarioRun:
    """Executes one scenario's pipeline, collecting the report."""

    def __init__(self, config: dict) -> None:
        self.config = config
        try:
            name = config["name"]
            if not (isinstance(name, str) and SCENARIO_NAME.fullmatch(name)):
                raise ValueError(f"name must be letters, digits, '.', '_' and '-', "
                                 f"not starting with '.', got {name!r}")
            if not isinstance(config["pipeline"], list):
                raise ValueError(f"pipeline must be a list of steps, got {config['pipeline']!r}")
            self.pair = FlatPair.from_json(config["pair"])
            self.group = group_by_name(config["group"])
            self.window = Window.from_json(config["window"])
            self.r_max = json_int(config["r_max"], "r_max")
            self.seed = json_int(config["seed"], "seed")
            self.perturb = config["perturb"]
            if type(self.perturb) is not bool:
                raise ValueError(f"perturb must be a boolean, got {self.perturb!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad scenario configuration: {exc}") from None
        if self.window.dim != self.pair.ambient_dim:
            raise ScenarioError(
                f"window has dimension {self.window.dim}, "
                f"pair ambient dimension is {self.pair.ambient_dim}")
        self.rng = random.Random(self.seed)
        self.current: UfChain | EquivariantChain | None = None
        self.steps: list[dict] = []

    def run(self) -> dict:
        for i, step in enumerate(self.config["pipeline"]):
            if not isinstance(step, dict) or not isinstance(step.get("op"), str):
                raise ScenarioError(f"pipeline step {i} must be an object with a string 'op'")
            op = step["op"]
            handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
            if handler is None:
                raise ScenarioError(f"unknown pipeline op {op!r}")
            try:
                record = handler(step)
            except (DegeneratePosition, TruncationError):
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"step {i} ({op}): {exc}") from None
            entry = {"op": op, **record}
            if self.current is not None:
                entry["current"] = _chain_summary(self.current)
            self.steps.append(entry)
        return {
            "report_version": 1,
            "scenario": self.config,
            "steps": self.steps,
            "result": self.steps[-1] if self.steps else {},
        }

    # -- pipeline ops ------------------------------------------------------

    def _ctx(self, window: Window | None = None) -> WrongWayContext:
        return WrongWayContext(self.pair, self.group, self.perturb, window)

    def _op_kuhn_cycle(self, step: dict) -> dict:
        self.current = kuhn_fundamental_cycle(self.pair.ambient_dim, self.group)
        return {}

    def _op_restrict_equivariance(self, step: dict) -> dict:
        if not isinstance(self.current, EquivariantChain):
            raise ScenarioError("restrict_equivariance needs an equivariant chain")
        radius = json_int(step["radius"], "radius")
        sub = TranslationAction.tangential(self.pair)
        self.current = restrict_equivariance(self.current, sub, self.pair, radius)
        return {"radius": radius}

    def _op_equivariant_wrong_way(self, step: dict) -> dict:
        if not isinstance(self.current, EquivariantChain):
            raise ScenarioError("equivariant_wrong_way needs an equivariant chain")
        self.current = equivariant_wrong_way(self.current, self._ctx())
        return {}

    def _op_identify_class(self, step: dict) -> dict:
        if not isinstance(self.current, EquivariantChain):
            raise ScenarioError("identify_class needs an equivariant chain")
        degree = self.current.degree
        complex_ = build_quotient_complex(
            TranslationAction.standard(self.current.action.space.dim),
            self.r_max, range(0, degree + 2))
        coords = identify_class(self.current, complex_)
        return {"class": coords, "degree": degree}

    def _op_homology(self, step: dict) -> dict:
        dim = json_int(step["torus"], "torus")
        complex_ = build_quotient_complex(
            TranslationAction.standard(dim), self.r_max, range(0, dim + 2))
        report = snf_homology(complex_)
        return {"homology": report.to_json()}

    def _op_load_chain(self, step: dict) -> dict:
        self.current = UfChain.from_json(step["chain"])
        return {}

    def _op_boundary(self, step: dict) -> dict:
        if not isinstance(self.current, UfChain):
            raise ScenarioError("boundary needs a plain chain")
        self.current = boundary(self.current)
        return {}

    def _op_wrong_way(self, step: dict) -> dict:
        if not isinstance(self.current, UfChain):
            raise ScenarioError("wrong_way needs a plain chain")
        source = self.current
        self.current = wrong_way(source, self._ctx(self.window))
        norms_in = {p: uf_norm(source, p) for p in range(4)}
        norms_out = {p: uf_norm(self.current, p) for p in range(4)}
        return {
            "input_uf_norms": {str(p): RATIONALS.to_json(v) for p, v in norms_in.items()},
            "output_uf_norms": {str(p): RATIONALS.to_json(v) for p, v in norms_out.items()},
            "norm_nonincreasing": all(norms_out[p] <= norms_in[p] for p in norms_in),
        }

    def _op_chain_stats(self, step: dict) -> dict:
        if not isinstance(self.current, UfChain):
            raise ScenarioError("chain_stats needs a plain chain")
        radii = [json_int(r, "radii entry") for r in step.get("radii", [0, 1, 2])]
        if any(r < 0 for r in radii):
            raise ScenarioError(f"chain_stats needs radii >= 0, got {radii}")
        return {"stats": chain_stats(self.current, radii).to_json()}

    def _op_norms(self, step: dict) -> dict:
        if not isinstance(self.current, UfChain):
            raise ScenarioError("norms needs a plain chain")
        max_power = json_int(step.get("max_power", 3), "max_power")
        if max_power < 0:
            raise ScenarioError("norms needs max_power >= 0")
        return {
            "uf_norms": {str(p): RATIONALS.to_json(uf_norm(self.current, p))
                         for p in range(max_power + 1)},
            "frechet_seminorms": {str(p): RATIONALS.to_json(frechet_seminorm(self.current, p))
                                  for p in range(max_power + 1)},
        }

    def _op_expand(self, step: dict) -> dict:
        if not isinstance(self.current, EquivariantChain):
            raise ScenarioError("expand needs an equivariant chain")
        self.current = self.current.expand(self.window)
        return {"window": self.window.to_json()}

    def _op_sign_identity(self, step: dict) -> dict:
        count = json_int(step["count"], "count")
        degree = json_int(step["degree"], "degree")
        terms, spread, box = (json_int(step.get(key, default), key)
                              for key, default in (("terms", 4), ("spread", 2), ("box", 3)))
        if degree < self.pair.codim + 1:
            raise ScenarioError("sign_identity needs degree >= codim + 1")
        for key, value, least in (("count", count, 1), ("terms", terms, 1),
                                  ("spread", spread, 0), ("box", box, 0)):
            if value < least:
                raise ScenarioError(f"sign_identity needs {key} >= {least}")
        ctx = self._ctx()
        attempts = 0
        max_residual = Fraction(0)
        for checked in range(count):
            try:
                _, residual, draws = general_position_chain(
                    self.rng, self.pair, degree, ctx, terms, box, spread)
            except ValueError as exc:
                raise ValueError(f"{exc}, with {checked} of {count} chains checked") from None
            attempts += draws
            max_residual = max(max_residual, uf_norm(residual, 0))
        return {
            "chains": count,
            "attempts": attempts,
            "max_residual_sup_norm": RATIONALS.to_json(max_residual),
        }


def run_scenario(source: str | Path) -> dict:
    return ScenarioRun(load_scenario(source)).run()
