"""Benchmark runner: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload chain-wrongway --seed 1 --seconds 20 --trace 0

With --trace 0 the run is untraced and prints the end-to-end metrics; with
--trace 1 it runs one untraced reference cycle and one traced cycle over
the same inputs and prints the per-layer metrics.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
a human-readable summary and a provenance block go to standard error.
The program is imported from the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def latency_split(latencies: list[tuple[str, float]], p: float = 50) -> dict[str, float]:
    """Percentile of the op latencies per tag (e.g. per coefficient group)."""
    by_tag: dict[str, list[float]] = {}
    for tag, ms in latencies:
        by_tag.setdefault(tag, []).append(ms)
    return {tag: percentile(values, p) for tag, values in sorted(by_tag.items())}


def git_commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, machine-wide (Linux)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def import_program() -> None:
    """Put the checkout's src/ first on the path and import the program from it.

    The workloads module imports the program, so functions here import it
    only when called, after this has run.
    """
    if not (SRC / "coarse_chains" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'coarse_chains'}")
    sys.path.insert(0, str(SRC))
    import coarse_chains

    if Path(coarse_chains.__file__).resolve().parent != (SRC / "coarse_chains").resolve():
        raise SystemExit(f"perfbench: imported coarse_chains from {coarse_chains.__file__}")


class Cycle:
    """Outcome of one pass over a workload's fixed list of ops."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.outcomes: list[str] = []
        self.nontrivial: list[bool] = []
        self.results: list = []
        self.latencies: list[tuple[str, float]] = []  # ok ops only, in ms


def run_cycle(workload) -> Cycle:
    from workloads import FAILED, OK

    clock = time.perf_counter
    cycle = Cycle()
    times = []
    start = clock()
    for item in workload.items:
        t0 = clock()
        try:
            result, error = workload.run(item), None
        except Exception as exc:  # a raising op is counted, not fatal
            result, error = None, exc
        times.append(clock() - t0)
        try:
            outcome, nontrivial = workload.check(item, result, error)
        except Exception:  # a result the check cannot read is a wrong answer
            outcome, nontrivial = FAILED, False
        cycle.outcomes.append(outcome)
        cycle.nontrivial.append(nontrivial)
        cycle.results.append(result)
    cycle.wall = clock() - start
    cycle.latencies = [(item.tag, t * 1e3) for item, t, outcome
                       in zip(workload.items, times, cycle.outcomes) if outcome == OK]
    return cycle


def cell_report(workload, cycle: Cycle) -> dict[str, dict[str, int]]:
    """Attempts, rejections and non-trivial ops per cell of the input list."""
    from workloads import REJECTED

    cells: dict[str, dict[str, int]] = {}
    for item, outcome, nontrivial in zip(workload.items, cycle.outcomes, cycle.nontrivial):
        cell = cells.setdefault(item.cell, {"attempts": 0, "rejected": 0, "nontrivial": 0})
        cell["attempts"] += 1
        cell["rejected"] += outcome == REJECTED
        cell["nontrivial"] += nontrivial
    return cells


def setup_probe_times(workload: str, seed: int, count: int) -> list[float]:
    """Interpreter start, import and input generation, each in a fresh process."""
    times = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def measure(workload, seconds: float, seed: int) -> tuple[dict, dict, Cycle, int, int]:
    """Untraced closed loop: whole cycles until `seconds` have elapsed.

    Only the first cycle is kept (for the cell report); later ones are
    reduced to their wall time and latencies as they end, so the peak RSS
    does not grow with the number of cycles a fast program gets through.
    """
    from workloads import FAILED, OK

    setup = setup_probe_times(workload.name, seed, SETUP_PROBES)
    first = None
    walls: list[float] = []
    latencies = array("d")
    attempted = failed = ok_ops = 0
    while not walls or sum(walls) < seconds:
        cycle = run_cycle(workload)
        cycle.results = []
        walls.append(cycle.wall)
        latencies.extend(ms for _, ms in cycle.latencies)
        attempted += len(cycle.outcomes)
        failed += cycle.outcomes.count(FAILED)
        ok_ops += cycle.outcomes.count(OK)
        first = first or cycle
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elapsed = sum(walls)
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "ops_per_s": ok_ops / elapsed,
        "peak_rss_mib": peak_rss,
        "op_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "op_p90_ms": percentile(latencies, 90) if latencies else 0.0,
    }
    samples = {"setup_s": len(setup), "wall_s": len(walls), "ops_per_s": ok_ops,
               "peak_rss_mib": 1, "op_p50_ms": len(latencies), "op_p90_ms": len(latencies)}
    return metrics, samples, first, attempted, failed


def traced(workload) -> tuple[dict, dict, list[Cycle], dict]:
    """One untraced reference cycle, then the same cycle traced."""
    import layers
    from tracer import Tracer
    from workloads import OK, REJECTED

    reference = run_cycle(workload)
    tracer = Tracer()
    installed = layers.install(tracer)
    try:
        cycle = run_cycle(workload)
    finally:
        stale = tracer.restore()
    same = reference.outcomes == cycle.outcomes and all(
        workload.canonical(a) == workload.canonical(b)
        for a, b, outcome in zip(reference.results, cycle.results, cycle.outcomes)
        if outcome == OK)

    split = latency_split(reference.latencies)
    ref_ms = [ms for _, ms in reference.latencies]
    p50 = percentile(ref_ms, 50) if ref_ms else 0.0
    by_basis = (workload.seconds_by_basis(reference.results[0])
                if reference.outcomes[0] == OK else {})
    extra = {
        "trace.overhead_ratio": cycle.wall / reference.wall,
        "wrongway.rejected": cycle.outcomes.count(REJECTED),
        "wrongway.nontrivial_ratio": (sum(cycle.nontrivial) / len(cycle.outcomes)
                                      if workload.name == "chain-wrongway" else 0.0),
        "homology.ordered_share": (by_basis["ordered"] / sum(by_basis.values())
                                   if by_basis else 0.0),
        **{f"coeffs.op_p50_ratio.{g}": split[g] / p50 if g in split and p50 else 0.0
           for g in ("Z", "Z2", "Q")},
    }
    metrics, self_s = layers.per_layer_metrics(tracer, installed, cycle.wall, extra)
    detail = {
        "traced_wall_s": cycle.wall,
        "untraced_wall_s": reference.wall,
        "self_s": {k: v for k, v in self_s.items() if v},
        "op_p50_ms_by_tag": split,
        "homology_s": by_basis,
        "reductions_rows_cols_rank_pops": installed.reductions,
        "counts": dict(sorted(tracer.counts.items())),
        "missing_targets": installed.missing,
        "unrestored": stale,
        "traced_equals_untraced": same,
    }
    return metrics, dict(layers.PER_LAYER), [reference, cycle], detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import FAILED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    load_start, steal_start, cpu_start = os.getloadavg(), steal_seconds(), time.process_time()
    if args.trace:
        metrics, units, cycles, detail = traced(workload)
        first = cycles[0]
        samples = {name: len(first.outcomes) for name in metrics}
        attempted = sum(len(c.outcomes) for c in cycles)
        failed = sum(c.outcomes.count(FAILED) for c in cycles)
    else:
        metrics, samples, first, attempted, failed = measure(workload, args.seconds, args.seed)
        units, detail = END_TO_END, {}

    cells = cell_report(workload, first)
    vacuous = sorted(name for name, cell in cells.items() if not cell["nontrivial"])
    correct = (failed == 0 and not vacuous and not detail.get("unrestored")
               and not detail.get("missing_targets")
               and detail.get("traced_equals_untraced", True))
    bad_names = [name for name in metrics if not valid_metric_name(name)]
    if bad_names:
        raise SystemExit(f"perfbench: invalid metric names {bad_names}")

    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_s": steal_seconds() - steal_start,
        "process_cpu_s": time.process_time() - cpu_start,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }
    summary = {"cells": cells, "vacuous_cells": vacuous, **detail}
    print("provenance " + json.dumps(provenance, sort_keys=True), file=sys.stderr)
    print("summary " + json.dumps(summary, sort_keys=True, default=str), file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:55s} {value:>16.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
