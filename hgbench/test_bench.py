"""Tests of the benchmark's own helpers.

    python3 -m pytest -q hgbench
"""

import json
import types
from collections import Counter
from itertools import islice

import numpy as np

import bench
import tracing


def test_percentile_rule_leaves_ten_samples_beyond():
    for pct, n in ((50, 20), (90, 100), (95, 200), (99, 1000)):
        assert bench.min_samples(pct) == n
        values = [float(v) for v in range(n)]
        assert bench.beyond(values, pct) >= 10
        # one sample fewer and the rule no longer holds
        assert bench.beyond(values[:-1], pct) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert bench.percentile(values, 95) == 190
    assert bench.percentile(values, 50) == 100
    assert bench.percentile([7.0], 95) == 7.0


def _span(start, end, parent=None):
    return tracing.Span("x", parent, start, end)


def test_self_time_subtracts_children_once():
    parent = _span(0.0, 10.0)
    # two overlapping children cover [1, 4]; the third is clipped at 10
    children = [_span(2.0, 4.0), _span(1.0, 3.0), _span(9.0, 12.0)]
    assert tracing.self_time(parent, children) == 6.0
    assert tracing.self_time(parent, []) == 10.0


def test_self_time_of_traced_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: (mod.inner(), mod.inner())
    targets = [(mod, "outer", "m.outer", "span", None), (mod, "inner", "m.inner", "span", None)]
    with tracer.installed(targets):
        mod.outer()
    outer = tracer.spans[0]
    kids = tracing.children_of(tracer.spans, 0, len(tracer.spans))[0]
    # outer runs from tick 0 to 5, each inner call takes one tick
    assert (outer.start, outer.end) == (0.0, 5.0)
    assert tracing.self_time(outer, kids) == 3.0
    assert mod.outer.__name__ == "<lambda>"  # originals restored


def test_missing_target_is_reported_not_zero():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace(present=lambda: 1)
    targets = [(mod, "present", "m.present", "span", None),
               (mod, "_gone", "m._gone", "sweeps", None)]
    with tracer.installed(targets):
        mod.present()
    assert tracer.missing == {"m._gone"}
    assert [s.name for s in tracer.spans] == ["m.present"]


def test_sweeps_go_to_the_nearest_owner():
    tracer = tracing.Tracer()
    gm = types.SimpleNamespace()
    gm._sweep = lambda: None
    gm._best_real_overlap = lambda: gm._sweep()
    gm.solve_code = lambda: (gm._sweep(), gm._sweep())
    gm.degeneracy_pattern = lambda: (gm._sweep(), gm._best_real_overlap())
    targets = [(gm, n, f"geoment.{n}", "span", None)
               for n in ("solve_code", "degeneracy_pattern", "_best_real_overlap")]
    targets.append((gm, "_sweep", "geoment._sweep", "sweeps", None))
    with tracer.installed(targets):
        gm.solve_code()
        gm.degeneracy_pattern()
    assert {s.name: s.sweeps for s in tracer.spans} == {
        "geoment.solve_code": 2, "geoment.degeneracy_pattern": 1,
        "geoment._best_real_overlap": 1}


N_CODES = 1 << 15
CLASS_ID = np.arange(N_CODES) % 39


def test_query_stream_is_a_pure_function_of_the_seed():
    def take(seed, n=2000):
        return list(islice(bench.query_stream(seed, CLASS_ID), n))

    assert take(3) == take(3)
    assert take(3) != take(4)


def test_query_stream_visits_every_code_once_and_balances_prefixes():
    stream = bench.query_stream(11, CLASS_ID)
    first = list(islice(stream, N_CODES))
    assert sorted(first) == list(range(N_CODES))
    sizes = Counter(CLASS_ID.tolist())
    # a prefix of 2^k codes is one systematic sample, within one code of
    # proportional in every class; any other prefix is at most two of them
    for n, slack in ((512, 1), (1024, 1), (800, 2)):
        got = Counter(CLASS_ID[first[:n]].tolist())
        assert all(abs(got[c] - n * size / N_CODES) <= slack for c, size in sizes.items())


def test_query_stream_passes_over_skipped_codes_only():
    skip = frozenset(range(100, 132))
    full = list(islice(bench.query_stream(5, CLASS_ID), N_CODES))
    kept = list(islice(bench.query_stream(5, CLASS_ID, skip), N_CODES - len(skip)))
    assert kept == [c for c in full if c not in skip]


def test_layer_metrics_match_the_benchmark_spec():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = set(bench.layer_values([], 0, 0))
    assert set(bench.LAYER_SOURCES) == produced
    assert set(declared) == produced | {"trace.overhead_ms"}
    assert all(bench.layer_unit(name) == unit for name, unit in declared.items())


def test_unconverged_codes_still_fail_to_converge():
    # the query stream passes over these; once the solver converges on one,
    # it belongs back in the stream
    pkg = bench.Package()
    assert all(not pkg.gm.solve_code(code).converged for code in sorted(bench.UNCONVERGED_CODES))


def test_known_failures_puts_the_unconverged_codes_back():
    pkg = bench.Package()

    def codes(known_failures):
        query = bench.Query(pkg, 2, known_failures)
        return {query.next_input() for _ in range(N_CODES)}

    assert codes(True) == set(range(N_CODES))
    assert codes(False) == set(range(N_CODES)) - bench.UNCONVERGED_CODES
