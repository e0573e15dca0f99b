"""The benchmark in hgbench/ names package functions and verify suites by
string; a rename or deletion here would silently turn one of its per-layer
metrics into "missing".  These tests load hgbench/bench.py as it is and
check that every name it relies on still resolves."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hgstate import cli

BENCH = Path(__file__).resolve().parent.parent / "hgbench" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    # bench.py puts hgbench/ and src/ on sys.path; undo that afterwards
    saved = sys.path[:]
    spec = importlib.util.spec_from_file_location("hgbench_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved


def test_every_trace_target_resolves(bench):
    targets = bench.Package().trace_targets()
    assert targets
    for holder, key, span, _kind, _on_return in targets:
        target = holder.get(key) if isinstance(holder, dict) else getattr(holder, key, None)
        assert callable(target), f"{span}: {key!r} does not resolve"


def test_verify_suites_match_the_bench_names(bench):
    assert sorted(cli.SUITES) == sorted(bench.SUITE_NAMES)
