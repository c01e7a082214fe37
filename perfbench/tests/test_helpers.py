"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import layers
import run
from tracer import Tracer, self_times
from workloads import FAILED, OK, ChainWrongway, ClassTransport


def test_self_time_on_hand_built_span_tree():
    spans = [
        ("op", 0.0, 10.0, -1),       # children cover [1, 4] and [5, 9]: 7 of 10
        ("build", 1.0, 4.0, 0),      # child covers [2, 3]
        ("normalize", 2.0, 3.0, 1),
        ("reduce", 5.0, 9.0, 0),     # children overlap: [6, 8] U [7, 8.5] = 2.5
        ("pop", 6.0, 8.0, 3),
        ("pop", 7.0, 8.5, 3),
        ("op", 20.0, 21.0, -1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"op": 3.0 + 1.0, "build": 2.0, "normalize": 1.0,
                                 "reduce": 1.5, "pop": 3.5})


def test_percentile_picker_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == 5.0
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_metric_name_rule():
    for name in ("setup_s", "op_p50_ms", "coeffs.op_p50_ratio.Z2",
                 "intlinalg.rank_and_factors.heap_pops", "9lives", "a-b"):
        assert run.valid_metric_name(name), name
    for name in ("", ".hidden", "op p50", "op/p50", "x" * 65, "ms:1", "Z/2"):
        assert not run.valid_metric_name(name), name
    for name in [*run.END_TO_END, *layers.PER_LAYER]:
        assert run.valid_metric_name(name), name


def test_per_group_latency_split():
    latencies = [("Z", 1.0), ("Q", 4.0), ("Z", 3.0), ("Z2", 2.0), ("Q", 6.0), ("Z", 2.0)]
    assert run.latency_split(latencies) == {"Q": 4.0, "Z": 2.0, "Z2": 2.0}
    assert run.latency_split(latencies, 90) == {"Q": 6.0, "Z": 3.0, "Z2": 2.0}
    assert run.latency_split([]) == {}


def test_transport_check_needs_generators_that_flip_with_orientation():
    workload = ClassTransport(1)
    (item,) = workload.items

    def reports(sign=lambda n, q, orientation: [orientation], degree=lambda n, q: n - q):
        return [{"result": {"op": "identify_class", "degree": degree(n, q),
                            "class": sign(n, q, orientation)}}
                for n, q, orientation, _ in item.data]

    assert workload.check(item, reports(), None) == (OK, True)
    assert workload.check(item, reports(sign=lambda n, q, o: [-o]), None) == (OK, True)
    no_flip = reports(sign=lambda n, q, o: [1] if (n, q) == (3, 2) else [o])
    assert workload.check(item, no_flip, None)[0] == FAILED
    not_generator = reports(sign=lambda n, q, o: [2 * o] if (n, q) == (4, 3) else [o])
    assert workload.check(item, not_generator, None)[0] == FAILED
    assert workload.check(item, reports(degree=lambda n, q: n), None)[0] == FAILED
    assert workload.check(item, reports()[1:], None)[0] == FAILED
    assert workload.check(item, None, RuntimeError("boom"))[0] == FAILED


class SmallChainWrongway(ChainWrongway):
    """One chain of every case, enough to exercise each wrapped layer."""

    PER_CASE = 1


def _traced_pass(workload):
    tracer = Tracer()
    layers.install(tracer)
    try:
        cycle = run.run_cycle(workload)
    finally:
        stale = tracer.restore()
    return cycle, dict(tracer.counts), stale


def test_traced_run_is_transparent_and_counts_repeat():
    import coarse_chains
    from coarse_chains import chains, equivariant, geometry, intlinalg, wrongway

    watched = [(geometry, "thom_crossing"), (wrongway, "thom_crossing"),
               (equivariant, "thom_crossing"), (coarse_chains, "thom_crossing"),
               (equivariant, "solve_int"), (intlinalg, "heapq"),
               (chains.UfChain, "__init__"), (wrongway, "boundary")]
    before = [vars(owner)[attr] for owner, attr in watched]

    workload = SmallChainWrongway(3)
    plain = run.run_cycle(workload)
    first, counts_a, stale_a = _traced_pass(workload)
    second, counts_b, stale_b = _traced_pass(workload)

    assert stale_a == stale_b == []
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert plain.outcomes == first.outcomes == second.outcomes
    assert "failed" not in plain.outcomes
    for a, b, outcome in zip(plain.results, first.results, plain.outcomes):
        if outcome == "ok":
            assert workload.canonical(a) == workload.canonical(b)
    assert counts_a == counts_b
    assert counts_a["geometry.thom_crossing.calls"] > 0
    # A rejection can surface inside the residual, after wrong_way succeeded.
    assert counts_a["wrongway.sign_identity_residual.calls"] >= plain.outcomes.count("ok")


def test_heap_pops_are_counted_on_a_small_reduction():
    from coarse_chains.equivariant import TranslationAction, build_quotient_complex

    complex_ = build_quotient_complex(TranslationAction.standard(2), 1, range(4))
    tracer = Tracer()
    installed = layers.install(tracer)
    try:
        ranks = {d: m.rank_and_factors() for d, m in complex_.matrices.items()}
    finally:
        assert tracer.restore() == []
    assert installed.missing == []
    values, _ = layers.per_layer_metrics(tracer, installed, 1.0, {})
    pops = installed.heap.pops
    assert pops > 0
    assert values["intlinalg.rank_and_factors.heap_pops"] == pops
    assert sum(r[3] for r in installed.reductions) == pops
    assert [r[2] for r in installed.reductions] == [r for r, _ in ranks.values()]
    assert values["intlinalg.rank_and_factors.unit_pivots"] == sum(r for r, _ in ranks.values())
    assert values["intlinalg.dense_core.rows"] == 0


def test_missing_traced_target_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(layers.TARGETS, "chains.renamed", ("chains", "no_such_function"))
    assert run.main(["--workload", "chain-wrongway", "--seed", "1", "--seconds", "1",
                     "--trace", "1"]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(next(line for line in err.splitlines()
                              if line.startswith("summary "))[len("summary "):])
    assert summary["missing_targets"] == ["chains.renamed"]
    assert summary["unrestored"] == [] and summary["traced_equals_untraced"]
    assert summary["vacuous_cells"] == []
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is False
