"""The benchmark's three workloads: seeded inputs, one op, and its check.

Each workload builds a fixed list of op items from the seed (one "cycle")
and is driven as a closed loop by one caller, one op at a time.  Expected
answers are written here by hand; none is taken from the program under
test.

- chain-wrongway: wrong_way, sign_identity_residual and boundary(boundary(c))
  on seeded random UfChains.  Work sits in coeffs/chains/geometry/wrongway,
  none in intlinalg or equivariant.
- torus-homology: build_quotient_complex plus snf_homology on T^1..T^3
  ordered and T^3, T^4 oriented, the whole set as one op.  Work sits in equivariant enumeration and
  the sparse intlinalg reduction; the two bases load those layers with very
  different shapes.
- class-transport: kuhn_cycle -> restrict_equivariance ->
  equivariant_wrong_way (perturb) -> identify_class as scenario configs run
  through scenarios.ScenarioRun, the whole set as one op.  Work sits in the
  dense intlinalg path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

# Program functions are called through their modules, so that the traced
# run's wrappers, installed on module attributes, see the benchmark's calls.
from coarse_chains import chains, equivariant, scenarios, wrongway
from coarse_chains.chains import UfChain
from coarse_chains.coeffs import INTEGERS, INTEGERS_MOD_2, RATIONALS
from coarse_chains.equivariant import TranslationAction
from coarse_chains.geometry import DegeneratePosition, FlatPair
from coarse_chains.spaces import LatticeSpace
from coarse_chains.wrongway import WrongWayContext

OK, REJECTED, FAILED = "ok", "rejected", "failed"

GROUP_TAGS = {"Z": "Z", "Z/2": "Z2", "Q": "Q"}


@dataclass
class Item:
    """One op's input; tag labels the latency split, cell the vacuity guard."""

    tag: str
    cell: str
    data: object


class Workload:
    """A fixed list of items, one op per item, and the checks of its answers."""

    name: str
    items: list[Item]

    def seconds_by_basis(self, result) -> dict[str, float]:
        """Seconds an op spent per quotient-complex basis; empty without complexes."""
        return {}


class ChainWrongway(Workload):
    """Seeded random chains under the wrong-way map and its sign identity."""

    name = "chain-wrongway"
    PAIRS = ((2, 1), (3, 1), (3, 2), (4, 2))
    GROUPS = (INTEGERS, INTEGERS_MOD_2, RATIONALS)
    PER_CASE = 16
    TERMS, BOX, SPREAD = 5, 3, 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        items = []
        # Equal shares of every (pair, group, degree, perturb) case; the list
        # is fixed, with no rejection loop, so rejections are counted, not hidden.
        for n, q in self.PAIRS:
            for group in self.GROUPS:
                for degree in (q + 1, q + 2):
                    for perturb in (False, True):
                        pair = FlatPair(n, q)
                        ctx = WrongWayContext(pair, group, perturb)
                        for _ in range(self.PER_CASE):
                            chain = self._chain(rng, pair, group, degree, perturb)
                            items.append(Item(GROUP_TAGS[group.name],
                                              f"n{n}q{q}.{GROUP_TAGS[group.name]}",
                                              (chain, ctx)))
        rng.shuffle(items)
        self.items = items

    def _chain(self, rng: random.Random, pair: FlatPair, group, degree: int,
               perturb: bool) -> UfChain:
        n, q = pair.ambient_dim, pair.codim
        terms = []
        for _ in range(self.TERMS):
            base = [rng.randint(-self.BOX, self.BOX) for _ in range(n)]
            if perturb:
                # Centred within distance 1 of the flat, so most leading
                # simplices cross it and the Thom value is nonzero.
                for i in range(n - q, n):
                    base[i] = rng.randint(-1, 1)
            tup = tuple(
                tuple(b + rng.randint(-self.SPREAD, self.SPREAD) for b in base)
                for _ in range(degree + 1)
            )
            if group is RATIONALS:
                coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            elif group is INTEGERS_MOD_2:
                coeff = 1
            else:
                coeff = rng.choice([-2, -1, 1, 2])
            terms.append((tup, coeff))
        return UfChain(degree, LatticeSpace(n), group, terms)

    @staticmethod
    def run(item: Item):
        chain, ctx = item.data
        image = wrongway.wrong_way(chain, ctx)
        residual = wrongway.sign_identity_residual(chain, ctx)
        dd = chains.boundary(chains.boundary(chain))
        return image, residual, dd

    @staticmethod
    def check(item: Item, result, error: BaseException | None) -> tuple[str, bool]:
        """(outcome, nontrivial) of one op."""
        chain, ctx = item.data
        if error is not None:
            if isinstance(error, DegeneratePosition) and not ctx.perturb:
                return REJECTED, False
            return FAILED, False
        image, residual, dd = result
        pair = ctx.pair
        ok = (residual.is_zero() and dd.is_zero()
              and image.degree == chain.degree - pair.codim
              and image.space.dim == pair.flat_dim
              and image.group == chain.group)
        return (OK if ok else FAILED), not image.is_zero()

    @staticmethod
    def canonical(result):
        image, residual, dd = result
        return image.sorted_terms(), residual.sorted_terms(), dd.sorted_terms()


class TorusHomology(Workload):
    """Quotient-torus homology on the ordered and the oriented basis.

    One op computes the whole set of five complexes, in a seeded order: the
    two large ones take nearly all of the time, so per-complex latencies
    would make the op percentiles hinge on which small complex is the median.
    """

    name = "torus-homology"
    # (n, ordered basis?) -> betti numbers of T^n, all torsion-free.
    EXPECTED = {
        (1, True): (1, 1),
        (2, True): (1, 2, 1),
        (3, True): (1, 3, 3, 1),
        (3, False): (1, 3, 3, 1),
        (4, False): (1, 4, 6, 4, 1),
    }

    def __init__(self, seed: int) -> None:
        specs = list(self.EXPECTED)
        random.Random(seed).shuffle(specs)
        self.items = [Item("Z", "T1-T4", specs)]

    @staticmethod
    def run(item: Item):
        """[(spec, homology report, seconds)] for every complex of the set."""
        out = []
        for n, ordered in item.data:
            start = time.perf_counter()
            complex_ = equivariant.build_quotient_complex(
                TranslationAction.standard(n), 1, range(n + 2), include_degenerate=ordered)
            report = equivariant.snf_homology(complex_)
            out.append(((n, ordered), report, time.perf_counter() - start))
        return out

    def check(self, item: Item, result, error: BaseException | None) -> tuple[str, bool]:
        if error is not None or [spec for spec, _, _ in result] != item.data:
            return FAILED, False
        for spec, report, _ in result:
            entries = sorted(report.entries, key=lambda e: e.degree)
            want = self.EXPECTED[spec]
            if ([e.degree for e in entries] != list(range(len(want)))
                    or tuple(e.betti for e in entries) != want
                    or any(e.torsion for e in entries)):
                return FAILED, False
        return OK, True

    @staticmethod
    def canonical(result):
        return [(spec, report.to_json()) for spec, report, _ in result]

    def seconds_by_basis(self, result) -> dict[str, float]:
        out = {"ordered": 0.0, "oriented": 0.0}
        for (_, ordered), _, seconds in result:
            out["ordered" if ordered else "oriented"] += seconds
        return out


class ClassTransport(Workload):
    """Fundamental-class transport [T^n] -> [T^(n-q)] as scenario runs.

    One op runs every scenario of the set, in a seeded order: the four
    transports onto T^2 take nearly all of the time, so per-scenario
    latencies would put the op median on the few small (4, 3) transports,
    whose time moved by 40% between runs.
    """

    name = "class-transport"
    # (4, 1) is left out: its T^3 target does not finish within memory today.
    PAIRS = ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3))

    def __init__(self, seed: int) -> None:
        configs = []
        for n, q in self.PAIRS:
            for orientation in (1, -1):
                config = {
                    "name": f"transport-n{n}-q{q}-{'pos' if orientation > 0 else 'neg'}",
                    "pair": {"ambient_dim": n, "codim": q, "normal_orientation": orientation},
                    "group": "Z",
                    "window": {"lo": [-3] * n, "hi": [3] * n},
                    "r_max": 1,
                    "seed": seed,
                    "perturb": True,
                    "pipeline": [
                        {"op": "kuhn_cycle"},
                        {"op": "restrict_equivariance", "radius": 1},
                        {"op": "equivariant_wrong_way"},
                        {"op": "identify_class"},
                    ],
                }
                configs.append((n, q, orientation, config))
        random.Random(seed).shuffle(configs)
        self.items = [Item("Z", "transport", configs)]

    @staticmethod
    def run(item: Item):
        return [scenarios.ScenarioRun(config).run() for _, _, _, config in item.data]

    @staticmethod
    def check(item: Item, result, error: BaseException | None) -> tuple[str, bool]:
        if error is not None or len(result) != len(item.data):
            return FAILED, False
        classes: dict[tuple[int, int], dict[int, list]] = {}
        for (n, q, orientation, _), report in zip(item.data, result):
            final = report["result"]
            # The image of the fundamental class is a generator: [+1] or [-1].
            if (final.get("op") != "identify_class" or final.get("degree") != n - q
                    or final.get("class") not in ([1], [-1])):
                return FAILED, False
            classes.setdefault((n, q), {})[orientation] = final["class"]
        # The class flips sign with the orientation.
        if any(pair[1] != [-x for x in pair[-1]] for pair in classes.values()):
            return FAILED, False
        return OK, True

    @staticmethod
    def canonical(result):
        return result


WORKLOADS = {cls.name: cls for cls in (ChainWrongway, TorusHomology, ClassTransport)}
