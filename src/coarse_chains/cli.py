"""Command line interface: scenario runner, verifier, one-shot operations.

Exit codes: 0 success, 1 usage, parse or configuration error or unwritable
output path, 2 degenerate position, 3 spread/radius truncation, 4 a verify
battery with a failed check.  Commands
raise; `_fail` alone writes the failure to stderr (one `error:` line, or a
JSON payload for codes 2 and 3) and picks its exit code.
`run` executes its scenarios in the order given, in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .chains import UfChain
from .equivariant import TranslationAction, TruncationError, build_quotient_complex, snf_homology
from .geometry import DegeneratePosition, FlatPair
from .scenarios import ScenarioRun, canonical_dumps, load_scenario
from .verify import MUTATIONS, run_verify
from .wrongway import WrongWayContext, wrong_way

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DEGENERATE = 2
EXIT_TRUNCATION = 3
EXIT_CHECKS_FAILED = 4


def _fail(exc: ValueError | OSError) -> int:
    """Report an error on stderr and return its exit code."""
    if isinstance(exc, DegeneratePosition):
        payload: dict = {"error": "degenerate-position", "detail": str(exc)}
        if exc.chain_tuple is not None:
            payload["tuple"] = [list(p) for p in exc.chain_tuple]
        if exc.simplex is not None:
            payload["simplex"] = exc.simplex.to_json()
        print(canonical_dumps(payload), file=sys.stderr, end="")
        return EXIT_DEGENERATE
    if isinstance(exc, TruncationError):
        print(canonical_dumps({"error": "truncation", "detail": str(exc)}),
              file=sys.stderr, end="")
        return EXIT_TRUNCATION
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_PARSE


def _guarded(command, *args) -> int:
    """Run a command, turning a ValueError or OSError into its exit code."""
    try:
        return command(*args)
    except (ValueError, OSError) as exc:
        return _fail(exc)


def _write_report(path: Path, text: str) -> None:
    """Write a report, creating missing parent directories."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _run_one_scenario(config: dict, out_dir: str | None) -> int:
    started = time.perf_counter()
    report = ScenarioRun(config).run()
    name = report["scenario"]["name"]
    out_path = (Path(out_dir) if out_dir else Path.cwd()) / f"{name}.report.json"
    _write_report(out_path, canonical_dumps(report))
    print(f"scenario {name}: report written to {out_path} "
          f"({(time.perf_counter() - started) * 1000:.1f} ms)", file=sys.stderr)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    # Every scenario is loaded before any runs: a report is named after its
    # scenario, so a repeated name would have one report overwrite another.
    configs = [load_scenario(source) for source in args.scenarios]
    names = [config["name"] for config in configs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"scenario name {name!r} is given twice; "
                             f"each scenario writes the report named after it")
    # A failing scenario reports its own exit code; the others still run.
    return max(_guarded(_run_one_scenario, config, args.out_dir) for config in configs)


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    report = run_verify(mutation=args.mutate)
    for check in report["checks"]:
        print(f"{check['status'].upper():4s} {check['name']}: {check['detail']}")
    if args.out:
        _write_report(Path(args.out), canonical_dumps(report))
    print(f"verify finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


def _cmd_wrongway(args: argparse.Namespace) -> int:
    try:
        n_str, q_str = args.pair.split(",")
        pair = FlatPair(int(n_str), int(q_str), args.orientation)
    except ValueError as exc:
        raise ValueError(f"bad --pair value {args.pair!r}: {exc}") from None
    try:
        chain = UfChain.from_json(json.loads(Path(args.infile).read_text()))
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot read chain from {args.infile}: {exc}") from None
    image = wrong_way(chain, WrongWayContext(pair, chain.group, perturb=args.perturb))
    _write_report(Path(args.outfile), canonical_dumps(image.to_json()))
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    dim = args.torus
    if dim < 1:
        raise ValueError("--torus must be >= 1")
    complex_ = build_quotient_complex(
        TranslationAction.standard(dim), args.rmax, range(dim + 2),
        include_degenerate=not args.no_degenerate)
    payload = {
        "torus": dim,
        "r_max": args.rmax,
        "include_degenerate": not args.no_degenerate,
        "basis_sizes": {str(d): complex_.basis_size(d) for d in complex_.degrees},
        "homology": snf_homology(complex_).to_json(),
    }
    text = canonical_dumps(payload)
    if args.out:
        _write_report(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's own 2 is the degenerate-position code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coarse-chains",
        description="Exact wrong-way maps on lattice model geometries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files (or bundled scenario names)")
    p_run.add_argument("scenarios", nargs="+",
                       help="paths to scenario JSON files, or bundled names like t2-to-s1")
    p_run.add_argument("--out-dir", default=None, help="directory for report files")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the deterministic invariant battery")
    p_verify.add_argument("--mutate", choices=MUTATIONS, default=None,
                          help="inject one bundled bug to prove the battery bites")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_ww = sub.add_parser("wrongway", help="apply the wrong-way map to a chain file")
    p_ww.add_argument("--pair", required=True, metavar="n,q",
                      help="ambient dimension and codimension, e.g. 3,1")
    p_ww.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    p_ww.add_argument("--in", dest="infile", required=True, help="input chain JSON")
    p_ww.add_argument("--out", dest="outfile", required=True, help="output chain JSON")
    p_ww.add_argument("--perturb", action="store_true",
                      help="resolve degenerate positions by symbolic perturbation")
    p_ww.set_defaults(func=_cmd_wrongway)

    p_h = sub.add_parser("homology", help="quotient-complex homology of a torus")
    p_h.add_argument("--torus", type=int, required=True, help="torus dimension")
    p_h.add_argument("--rmax", type=int, default=1, help="tuple spread bound")
    p_h.add_argument("--no-degenerate", action="store_true",
                     help="use the oriented basis (one sorted tuple per vertex set)")
    p_h.add_argument("--out", default=None, help="write the JSON report here")
    p_h.set_defaults(func=_cmd_homology)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
