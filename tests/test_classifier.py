"""Unit tests for reference-table matching and report emission."""

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

from hgstate import classifier as cf
from hgstate import geoment as gm
from hgstate import hypercore as hc
from hgstate import statevec as sv


def test_reference_rows_shape():
    rows = cf.REFERENCE_ROWS
    assert sorted(rows) == list(range(1, 29))
    for n, ref in rows.items():
        assert ref.row == n
        assert ref.table == ("I" if n <= 11 else "III")
        assert ref.m >= 1
        assert len(ref.be2) == 3 and len(ref.be1) == 4
        assert ref.pattern in {"4", "1,3", "2,2", "1,2,1", "1,1,1,1"}
        assert ref.reality in {"R", "C"}
        if ref.exact_ge is not None:
            assert abs(ref.exact_ge - ref.ge) < 5e-4


def test_reference_rows_carry_closed_forms():
    have = {n for n, ref in cf.REFERENCE_ROWS.items() if ref.exact_ge is not None}
    assert have == set(gm.closed_form_values())


def test_four_edge_state_matches_row_1():
    h = hc.parse_edges("1234")
    profile = sv.entropy_profile(h)
    assert abs(gm.solve_code(h).eg - 0.3043) < 5e-4
    assert np.allclose(sorted(profile.be2), [0.6561] * 3, atol=5e-4)
    assert np.allclose(sorted(profile.be1), [0.5436] * 4, atol=5e-4)


def test_check_distinct_compares_multisets_not_positions(records):
    # rows 2 and 14 have unequal cut entropies, so reversing the positional
    # tuples keeps the multisets and moves values to other positions
    for r in records:
        if r.row in (2, 14):
            p = r.profile
            assert not np.allclose(p.be2, p.be2[::-1], atol=cf.DISTINCT_TOL)
            twin = dataclasses.replace(
                r, rep=-1, profile=sv.EntropyProfile(be1=p.be1[::-1], be2=p.be2[::-1])
            )
            with pytest.raises(cf.ClassificationError, match="indistinguishable"):
                cf._check_distinct([r, twin])


def test_match_row_known_and_unknown():
    assert cf.match_row(4, 0.3043, (0.6561, 0.6561, 0.6561)) == ("I", 1)
    assert cf.match_row(3, 0.5647, (0.8113, 0.8113, 0.8113)) == ("III", 12)
    with pytest.raises(cf.ClassificationError, match="no table I row matches"):
        cf.match_row(4, 2.71, (1.0, 1.0, 1.0))
    with pytest.raises(cf.ClassificationError, match="only rank 3 and 4"):
        cf.match_row(2, 0.0, (0.0, 0.0, 0.0))


def test_match_row_reports_ambiguity(monkeypatch):
    ref = cf.REFERENCE_ROWS[1]
    twin = cf.ReferenceRow(
        table=ref.table,
        row=2,
        m=ref.m,
        ge=ref.ge,
        be2=ref.be2,
        be1=ref.be1,
        pattern=ref.pattern,
        reality=ref.reality,
        exact_ge=None,
    )
    monkeypatch.setattr(cf, "REFERENCE_ROWS", {1: ref, 2: twin})
    with pytest.raises(cf.ClassificationError, match=r"rows \[1, 2\] of table I all match"):
        cf.match_row(4, ref.ge, ref.be2)


def test_classification_is_a_row_bijection(records):
    assert [r.row for r in records] == list(range(1, 29))
    for r in records:
        assert r.table == ("I" if r.rank == 4 else "III")
        assert r.converged
        assert r.restarts_hit >= 1
        assert r.orbit_size == (256 if r.rank == 4 else 128) * r.m


def test_graph_records(graph_records):
    assert len(graph_records) == 11
    assert [g.rep for g in graph_records] == sorted(g.rep for g in graph_records)
    assert sum(g.m for g in graph_records) == 64
    for g in graph_records:
        assert g.rank <= 2
        assert g.table is None and g.row is None
        assert g.orbit_size == 16 * g.m


def test_reference_m_column_swap_rows_23_25(records):
    """Computed multiplicities for rows 23 and 25 are transposed relative
    to the printed table; the multiset over all rows still agrees."""
    by_row = {r.row: r for r in records}
    assert by_row[23].m == 4 and cf.REFERENCE_ROWS[23].m == 12
    assert by_row[25].m == 12 and cf.REFERENCE_ROWS[25].m == 4
    for n, r in by_row.items():
        if n not in (23, 25):
            assert r.m == cf.REFERENCE_ROWS[n].m
    computed = sorted(r.m for r in records)
    printed = sorted(ref.m for ref in cf.REFERENCE_ROWS.values())
    assert computed == printed


def test_signatures_pairwise_distinct(records):
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            if a.rank != b.rank:
                continue
            same_ge = abs(a.ge - b.ge) < cf.DISTINCT_TOL
            same_be2 = np.allclose(
                sorted(a.profile.be2), sorted(b.profile.be2), atol=cf.DISTINCT_TOL
            )
            assert not (same_ge and same_be2), (a.row, b.row)


def test_degeneracy_pattern_depends_on_the_representative(records, orbit_table):
    """The witness-grouping pattern is not constant on an orbit: local
    moves regroup the near-best product witnesses.  For rows 21 and 28
    the printed pattern is the one seen from another representative of
    the same orbit."""
    by_row = {r.row: r for r in records}
    cases = (
        (21, hc.act(by_row[21].rep, z_mask=0b100), "1,2,1", "2,2"),
        (28, hc.act(by_row[28].rep, x_mask=0b1, z_mask=0b1), "1,3", "4"),
    )
    for row, dressed, canonical_label, printed_label in cases:
        rec = by_row[row]
        assert orbit_table.class_id[dressed] == orbit_table.class_id[rec.rep]
        assert rec.pattern.label == canonical_label
        assert gm.degeneracy_pattern(gm.solve_code(dressed)).label == printed_label


def test_reference_comparison_flags(records):
    comp = cf.reference_comparison(records)
    assert all(c["reality_match"] for c in comp)
    divergent = {c["row"] for c in comp if not c["pattern_match"]}
    assert divergent == {6, 7, 21, 28}
    for c in comp:
        assert c["census"]  # every row reports its competing groupings


def test_emit_report_json(records, graph_records):
    text = cf.emit_report(records, graph_records, "json", seed=0)
    rep = json.loads(text)
    assert rep["seed"] == 0
    assert rep["totals"] == {"rank4": 16384, "rank3": 15360, "graphs": 1024}
    assert len(rep["classes"]) == 39
    keys = {
        "paper_table",
        "paper_row",
        "rep_edges",
        "rank",
        "m",
        "orbit_size",
        "ge",
        "ge_closed_form",
        "be2",
        "be1",
        "pattern",
        "reality",
        "restarts_hit",
    }
    for entry in rep["classes"]:
        assert keys <= set(entry)
        assert len(entry["be2"]) == 3 and len(entry["be1"]) == 4
        assert entry["ge"] >= 0.0


def test_emit_report_csv_and_md(records, graph_records):
    text = cf.emit_report(records, graph_records, "csv", seed=3)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 39
    assert rows[0]["paper_row"] == "1"

    md = cf.emit_report(records, graph_records, "md", seed=3)
    assert md.startswith("#")
    assert md.count("|") > 39

    with pytest.raises(ValueError):
        cf.emit_report(records, graph_records, "yaml", seed=3)


def test_reports_are_reproducible(records, graph_records):
    a = cf.emit_report(records, graph_records, "json", seed=0)
    b = cf.emit_report(records, graph_records, "json", seed=0)
    assert a == b


def test_degeneracy_diagnostics_at_seed_0(records, graph_records):
    every = records + graph_records
    evaluations = {r.rep: r.pattern.evaluations for r in every}
    assert len(evaluations) == 39 and sum(evaluations.values()) == 40554
    # an "R" class stops zooming at the hit window, four on the start grid
    start, zoomed = gm.START_GRID**2, gm.START_GRID**2 + 2 * len(gm._ZOOM) * gm.ZOOM_LEVELS
    real = [evaluations[r.rep] for r in every if r.pattern.reality == "R"]
    assert len(real) == 34 and real.count(start) == 4 and max(real) == 1228
    # a "C" class zooms every level; graph reps 52 and 2868 are proved on the
    # start grid, rows 17, 7 and 11 after branch-and-bound levels
    proved = {r.rep: evaluations[r.rep] for r in every if r.pattern.reality == "C"}
    assert proved == {52: zoomed, 2868: zoomed, 3136: 2192, 16436: 5164, 19252: 2760}
    assert sum(r.sweeps for r in every) == 1766


def test_bijection_failure_names_rows_and_reps(orbit_table, monkeypatch):
    # every class matched to row 1: the error names that row with all its reps
    monkeypatch.setattr(cf, "match_row", lambda rank, ge, be2: ("I", 1))
    with pytest.raises(cf.ClassificationError) as info:
        cf.classify_all(table=orbit_table)
    message = str(info.value)
    reps = [int(rep) for rep, rank in zip(orbit_table.reps, orbit_table.rep_rank) if rank in (3, 4)]
    assert len(reps) == 28
    assert f"row 1 matched by reps {reps}" in message
    assert "; row 2 matched by reps []; row 3 matched by reps []" in message


GOLDEN = Path(__file__).resolve().parent / "data" / "classify_seed0.json"


def _assert_matches_golden(ours, golden, where="report"):
    """Equal structure and non-float values; floats within 1e-12."""
    assert type(ours) is type(golden), where
    if isinstance(golden, dict):
        assert list(ours) == list(golden), where
        for key in golden:
            _assert_matches_golden(ours[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(ours) == len(golden), where
        for i, (a, b) in enumerate(zip(ours, golden)):
            _assert_matches_golden(a, b, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert abs(ours - golden) <= 1e-12, (where, ours, golden)
    else:
        assert ours == golden, where


def test_seed_0_report_matches_the_golden_file(records, graph_records):
    # a change that means to move the numbers regenerates the file with
    # `hgstate classify --format json --out tests/data/classify_seed0.json`
    ours = json.loads(cf.emit_report(records, graph_records, "json", seed=0))
    _assert_matches_golden(ours, json.loads(GOLDEN.read_text()))
