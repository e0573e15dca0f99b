"""Invariant signatures per orbit and the match against the reference tables.

Every rank-3 and rank-4 orbit gets a signature (geometric entanglement
plus the two entropy multisets) computed on its canonical representative.
The signature identifies the orbit's row in the reference classification
tables: within each rank, (GE, BE2 multiset) is injective over the rows,
which is what makes figure-free matching possible.  Multiplicity m is
deliberately not part of the key: the exact orbit sizes disagree with the
printed m for reference rows 23 and 25 (the two values are swapped there,
while every other row agrees), and the signature alone already pins the
row.

Graph-state orbits (standardized rank 2 or 0) are carried through every
report with the same measurements but no reference row.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import geoment as gm
from . import hypercore as hc
from . import orbits as ob
from . import statevec as sv

# a printed table value and a computed one agree within this tolerance
TABLE_TOL = 5e-4
# two of the 28 signatures may never be this close in every component
DISTINCT_TOL = 5e-4


class ClassificationError(RuntimeError):
    """No row, several rows, or colliding signatures; the message says which."""


# ---------------------------------------------------------------------------
# reference tables


@dataclass(frozen=True, slots=True)
class ReferenceRow:
    """One row of the source classification, stored verbatim.

    ``ge`` and the entropy letters are the printed 4-decimal values;
    ``exact_ge`` is the printed closed form evaluated in double precision
    (None when the row only prints a numerical value or names no
    expression).  ``m`` is the printed multiplicity, kept even where the
    exact orbit size disagrees (rows 23 and 25).
    """

    table: str
    row: int
    m: int
    ge: float
    be2: tuple[float, float, float]
    be1: tuple[float, float, float, float]
    pattern: str
    reality: str
    exact_ge: float | None


_RANK4_LETTERS = {"a": 0.6561, "b": 1.2624, "c": 1.6773, "d": 0.5436, "e": 0.9544}
_RANK3_LETTERS = {"r": 0.8113, "s": 1.5, "t": 1.2238, "u": 1.6009, "0": 0.0, "1": 1.0}

# (row, m, ge, be2 letters, be1 letters, pattern, reality)
_TABLE_I = (
    (1, 1, 0.3043, "aaa", "dddd", "4", "R"),
    (2, 6, 0.8157, "abb", "eedd", "2,2", "R"),
    (3, 3, 1.4891, "acc", "eeee", "2,2", "R"),
    (4, 12, 0.8954, "bbb", "eede", "1,2,1", "R"),
    (5, 12, 1.5261, "bcc", "eeee", "1,1,1,1", "R"),
    (6, 4, 0.8916, "bbb", "eeee", "2,2", "R"),
    (7, 4, 1.1360, "bbb", "eede", "2,2", "C"),
    (8, 3, 1.1732, "cbc", "eeee", "4", "R"),
    (9, 12, 1.4316, "bcc", "eeee", "1,2,1", "R"),
    (10, 6, 1.1165, "cbc", "eeee", "2,2", "R"),
    (11, 1, 1.1726, "bbb", "eeee", "4", "C"),
)
_TABLE_III = (
    (12, 4, 0.5647, "rrr", "rrr0", "1,3", "R"),
    (13, 12, 1.5417, "sss", "1r11", "1,2,1", "R"),
    (14, 12, 1.0, "ssr", "1rr1", "1,3", "R"),
    (15, 4, 1.5261, "sss", "1111", "1,3", "R"),
    (16, 6, 0.6115, "rtt", "rrrr", "2,2", "R"),
    (17, 6, 1.2284, "ruu", "11rr", "2,2", "C"),
    (18, 12, 1.0, "stt", "rrr1", "1,3", "R"),
    (19, 12, 1.4150, "suu", "11r1", "1,2,1", "R"),
    (20, 6, 1.4569, "stt", "rr11", "1,2,1", "R"),
    (21, 6, 1.4569, "suu", "1111", "2,2", "R"),
    (22, 4, 1.0, "ttt", "1rrr", "1,3", "R"),
    (23, 12, 0.6781, "ttt", "rrrr", "1,3", "R"),
    (24, 12, 1.3173, "uut", "111r", "1,2,1", "R"),
    (25, 4, 1.4150, "uut", "r11r", "1,2,1", "R"),
    (26, 1, 1.2230, "ttt", "1111", "4", "R"),
    (27, 6, 1.2767, "tuu", "rr11", "2,2", "R"),
    (28, 1, 0.8301, "ttt", "rrrr", "4", "R"),
)


def _build_reference() -> dict[int, ReferenceRow]:
    closed = gm.closed_form_values()
    rows: dict[int, ReferenceRow] = {}
    for table, data, letters in (("I", _TABLE_I, _RANK4_LETTERS), ("III", _TABLE_III, _RANK3_LETTERS)):
        for row, m, ge, be2, be1, pattern, reality in data:
            rows[row] = ReferenceRow(
                table=table,
                row=row,
                m=m,
                ge=ge,
                be2=tuple(letters[ch] for ch in be2),
                be1=tuple(letters[ch] for ch in be1),
                pattern=pattern,
                reality=reality,
                exact_ge=closed.get(row),
            )
    return rows


REFERENCE_ROWS: dict[int, ReferenceRow] = _build_reference()


# ---------------------------------------------------------------------------
# class records


@dataclass(frozen=True, slots=True)
class ClassRecord:
    """Everything reported about one code and its orbit.  ``std``,
    ``profile`` and ``pattern`` are the code's own: its standardized form,
    positional entropies and witness label (in ``classify_all`` the code is
    the orbit's rep).  The other fields describe its orbit and reference
    row.  The signature is ``ge`` plus the multisets of ``profile.be2`` and
    ``profile.be1``; ``converged`` and ``iterations`` are solver diagnostics
    that stay out of the report.  No solution or array is kept; see
    :func:`records` for the one error text when a record cannot be built."""

    rep: int
    std: int
    rank: int
    orbit_size: int
    m: int
    ge: float
    profile: sv.EntropyProfile
    pattern: gm.DegeneracyPattern
    restarts_hit: int
    converged: bool
    iterations: int
    closed_form: float | None
    table: str | None
    row: int | None


def _multiset_close(xs, ys, tol: float) -> bool:
    return len(xs) == len(ys) and all(
        abs(x - y) < tol for x, y in zip(sorted(xs), sorted(ys))
    )


def match_row(rank: int, ge: float, be2) -> tuple[str, int]:
    """Identify the reference row with this rank, GE, and BE2 multiset.

    Raises :class:`ClassificationError` when nothing fits within 5e-4 or
    when more than one row does.
    """
    if rank not in (3, 4):
        raise ClassificationError(f"only rank 3 and 4 orbits have reference rows, got rank {rank}")
    table = "I" if rank == 4 else "III"
    hits = [
        ref
        for ref in REFERENCE_ROWS.values()
        if ref.table == table
        and abs(ge - ref.ge) < TABLE_TOL
        and _multiset_close(be2, ref.be2, TABLE_TOL)
    ]
    if not hits:
        raise ClassificationError(
            f"no table {table} row matches ge={ge:.6f}, be2={tuple(sorted(be2))}"
        )
    if len(hits) > 1:
        raise ClassificationError(
            f"rows {[r.row for r in hits]} of table {table} all match ge={ge:.6f}"
        )
    return hits[0].table, hits[0].row


def _check_distinct(records) -> None:
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            pa, pb = a.profile, b.profile
            if (
                abs(a.ge - b.ge) < DISTINCT_TOL
                and _multiset_close(pa.be2, pb.be2, DISTINCT_TOL)
                and _multiset_close(pa.be1, pb.be1, DISTINCT_TOL)
            ):
                raise ClassificationError(
                    f"orbits with reps {a.rep} and {b.rep} are indistinguishable"
                )


def records(codes, sols, policy: gm.SolvePolicy,
            table: ob.OrbitTable | None = None) -> list[ClassRecord]:
    """The class record of each code from its solve under ``policy``, in
    input order, every reality from one ``gm.degeneracy_patterns`` call.

    Raises :class:`ClassificationError` for the first code that fails,
    naming it, its rank and the stage: "reality" when its reality is
    undecided, "row match" when no single row fits, or "solve" when its
    solve stopped at the iteration cap (the row match is blamed on the cap).
    """
    sols = list(sols)
    patterns = gm.degeneracy_patterns(sols)
    out = []
    for code, sol in zip(codes, sols):
        orbit = ob.orbit_of(code, table)
        profile = sv.entropy_profile(code)
        try:
            pattern = next(patterns)
            table_name = row = closed = None
            if orbit.rank in (3, 4):
                table_name, row = match_row(orbit.rank, sol.eg, profile.be2)
                closed = REFERENCE_ROWS[row].exact_ge
        except gm.RealityUndecided as exc:
            raise ClassificationError(f"code {code} (rank {orbit.rank}), reality: {exc}") from exc
        except ClassificationError as exc:
            stage = (f"row match: {exc}" if sol.converged else
                     f"solve: unconverged at iteration {sol.iterations} "
                     f"(max_iter={policy.max_iter}), ge={sol.eg:.6f}")
            raise ClassificationError(f"code {code} (rank {orbit.rank}), {stage}") from exc
        out.append(ClassRecord(
            rep=orbit.rep, std=hc.standardize(code), rank=orbit.rank, orbit_size=orbit.size,
            m=orbit.m, ge=sol.eg, profile=profile, pattern=pattern, restarts_hit=sol.restarts_hit,
            converged=sol.converged, iterations=sol.iterations, closed_form=closed,
            table=table_name, row=row,
        ))
    return out


def record(code: int, sol: gm.GeSolution, policy: gm.SolvePolicy) -> ClassRecord:
    """The class record of one code from its solve: :func:`records` of one."""
    return records([code], [sol], policy)[0]


def classify_all(
    policy: gm.SolvePolicy | None = None, table: ob.OrbitTable | None = None
) -> tuple[list[ClassRecord], list[ClassRecord]]:
    """Measure and match every orbit: the :func:`records` of the reps.

    Returns the 28 matched hypergraph classes sorted by reference row,
    and the graph-state classes sorted by representative.  Raises a
    :class:`ClassificationError` when a record fails (the first failing
    rep in rep order is named), or when signatures collide or rows are
    not matched one to one (none of which happens for this family; the
    checks guard regressions); the message names the reps involved.
    """
    policy = policy or gm.SolvePolicy()
    table = table or ob.enumerate_orbits()
    reps = [int(rep) for rep in table.reps]
    every = records(reps, gm.solve_codes(reps, policy), policy, table)
    matched = [r for r in every if r.rank in (3, 4)]
    graphs = [r for r in every if r.rank not in (3, 4)]
    _check_distinct(matched)
    reps_by_row = {row: [r.rep for r in matched if r.row == row] for row in REFERENCE_ROWS}
    wrong = "; ".join(f"row {row} matched by reps {reps}"
                      for row, reps in reps_by_row.items() if len(reps) != 1)
    if wrong:
        raise ClassificationError(f"reference rows not matched bijectively: {wrong}")
    matched.sort(key=lambda r: r.row)
    graphs.sort(key=lambda r: r.rep)
    return matched, graphs


def reference_comparison(records) -> list[dict]:
    """Per-row comparison of computed pattern/reality with the reference.

    Returns one dict per matched record with the computed and printed
    values, the census of competing witness groupings, and whether the
    row agrees.  The acceptance harness prints these for every divergent
    row.
    """
    out = []
    for r in records:
        ref = REFERENCE_ROWS[r.row]
        out.append(
            {
                "row": r.row,
                "computed_pattern": r.pattern.label,
                "printed_pattern": ref.pattern,
                "computed_reality": r.pattern.reality,
                "printed_reality": ref.reality,
                "census": r.pattern.census,
                "pattern_match": r.pattern.label == ref.pattern,
                "reality_match": r.pattern.reality == ref.reality,
            }
        )
    return out


# ---------------------------------------------------------------------------
# reports


def _class_dict(r: ClassRecord) -> dict:
    return {
        "paper_table": r.table,
        "paper_row": r.row,
        "rep_edges": hc.format_edges(r.std),
        "rank": r.rank,
        "m": r.m,
        "orbit_size": r.orbit_size,
        "ge": r.ge,
        "ge_closed_form": r.closed_form,
        "be2": list(r.profile.be2),
        "be1": list(r.profile.be1),
        "pattern": r.pattern.label,
        "reality": r.pattern.reality,
        "restarts_hit": r.restarts_hit,
    }


def emit_report(records, graph_records, fmt: str, seed: int) -> str:
    """Render the classification as "json", "csv" or "md" (markdown).

    Output is byte-identical for identical inputs; classes appear in
    reference-row order followed by graph classes by representative.
    """
    rows = [_class_dict(r) for r in records] + [_class_dict(r) for r in graph_records]
    totals = {
        "rank4": sum(r.orbit_size for r in records if r.rank == 4),
        "rank3": sum(r.orbit_size for r in records if r.rank == 3),
        "graphs": sum(r.orbit_size for r in graph_records),
    }
    if fmt == "json":
        return json.dumps({"classes": rows, "totals": totals, "seed": seed}, indent=2) + "\n"
    if fmt == "csv":
        return _emit_csv(rows)
    if fmt == "md":
        return _emit_markdown(rows, totals, seed)
    raise ValueError(f"unknown report format {fmt!r}")


def _emit_csv(rows) -> str:
    """One line per class; each list field spreads over numbered columns."""
    flat_rows = []
    for row in rows:
        flat = {}
        for key, value in row.items():
            if isinstance(value, list):
                flat.update((f"{key}_{i}", v) for i, v in enumerate(value, 1))
            else:
                flat[key] = "" if value is None else value
        flat_rows.append(flat)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat_rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat_rows)
    return buf.getvalue()


def _fmt4(x) -> str:
    return "" if x is None else f"{x:.4f}"


def _emit_markdown(rows, totals, seed: int) -> str:
    lines = [
        "# Four-qubit hypergraph state classification",
        "",
        f"codes: rank4={totals['rank4']}, rank3={totals['rank3']}, graphs={totals['graphs']}; seed={seed}",
        "",
        "| row | table | edges | m | orbit | GE | closed form | BE2 | BE1 | D | R/C | hits |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            "| {row} | {table} | {edges} | {m} | {orbit} | {ge} | {cf} | {be2} | {be1} | {pat} | {rc} | {hits} |".format(
                row=r["paper_row"] if r["paper_row"] is not None else "-",
                table=r["paper_table"] or "-",
                edges=r["rep_edges"] or "(none)",
                m=r["m"],
                orbit=r["orbit_size"],
                ge=_fmt4(r["ge"]),
                cf=_fmt4(r["ge_closed_form"]),
                be2=" ".join(_fmt4(v) for v in r["be2"]),
                be1=" ".join(_fmt4(v) for v in r["be1"]),
                pat=r["pattern"],
                rc=r["reality"],
                hits=r["restarts_hit"],
            )
        )
    lines.append("")
    return "\n".join(lines)
