"""Acceptance criteria for the four-qubit classification package.

Each criterion runs as one test and leaves one PASS/FAIL summary line,
printed in a dedicated section at the end of the pytest run.
"""

import math
import time

import numpy as np
import pytest

import conftest
from hgstate import classifier as cf
from hgstate import cli
from hgstate import geoment as gm
from hgstate import orbits as ob
from hgstate import statevec as sv

GE_TOL = 5e-4
CLOSED_FORM_TOL = 1e-6
ENTROPY_TOL = 5e-4

RANK4_ENTROPY_CONSTANTS = (0.6561, 1.2624, 1.6773, 0.5436, 0.9544)
RANK3_ENTROPY_CONSTANTS = (0.8113, 1.5, 1.2238, 1.6009, 0.0, 1.0)

# rows whose computed degeneracy pattern differs from the printed one
# under the declared coarsest-grouping rule (see the comparison report)
PATTERN_DIVERGENT_ROWS = (6, 7, 21, 28)


def record(n: int, ok: bool, detail: str, extra: list[str] | None = None) -> None:
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    for line in extra or ():
        conftest.ACCEPTANCE_LINES.append(f"    {line}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_partition_totals():
    ob.enumerate_orbits.cache_clear()
    t0 = time.perf_counter()
    table = ob.enumerate_orbits()
    dt = time.perf_counter() - t0
    census = ob.rank_census(table)
    low = census.get(0, 0) + census.get(1, 0) + census.get(2, 0)
    total = int(table.sizes.sum())
    ok = (
        total == 32768
        and census.get(4) == 16384
        and census.get(3) == 15360
        and low == 1024
        and dt < 1.0
    )
    record(
        1,
        ok,
        f"32768 codes partitioned: rank4={census.get(4)}, rank3={census.get(3)}, "
        f"rank<=2={low}, enumerated in {dt:.3f}s",
    )


def test_criterion_2_class_counts(records):
    r4 = [r for r in records if r.rank == 4]
    r3 = [r for r in records if r.rank == 3]
    ref4 = sorted(ref.m for ref in cf.REFERENCE_ROWS.values() if ref.table == "I")
    ref3 = sorted(ref.m for ref in cf.REFERENCE_ROWS.values() if ref.table == "III")
    ok = (
        len(r4) == 11
        and len(r3) == 17
        and sorted(r.m for r in r4) == ref4
        and sorted(r.m for r in r3) == ref3
        and all(r.orbit_size == 256 * r.m for r in r4)
        and all(r.orbit_size == 128 * r.m for r in r3)
    )
    record(
        2,
        ok,
        "11 rank-4 and 17 rank-3 classes; m multisets match the reference "
        "tables; orbit sizes equal 256m and 128m",
    )


def test_criterion_3_ge_reproduction(orbit_table):
    t0 = time.perf_counter()
    fresh, _ = cf.classify_all(table=orbit_table)
    dt = time.perf_counter() - t0
    gaps = {r.row: abs(r.ge - cf.REFERENCE_ROWS[r.row].ge) for r in fresh}
    worst = max(gaps.values())
    ok = len(fresh) == 28 and worst < GE_TOL and dt < 30.0
    record(
        3,
        ok,
        f"all 28 GE values within {GE_TOL:g} of the printed tables "
        f"(worst gap {worst:.2e}) in {dt:.1f}s at default policy",
    )


def test_criterion_4_closed_forms(records):
    by_row = {r.row: r for r in records}
    exact = gm.closed_form_values()
    iter_worst = max(abs(by_row[n].ge - v) for n, v in exact.items())
    print_worst = max(abs(cf.REFERENCE_ROWS[n].ge - v) for n, v in exact.items())
    ok = iter_worst < CLOSED_FORM_TOL and print_worst < GE_TOL
    record(
        4,
        ok,
        f"{len(exact)} closed-form rows: iterative GE within {CLOSED_FORM_TOL:g} "
        f"of the exact expressions (worst {iter_worst:.2e}); printed 4-dp values "
        f"within {GE_TOL:g} of exact (worst {print_worst:.2e})",
    )


def _constants_recovered(values, constants) -> bool:
    values = np.asarray(sorted(values))
    near = np.abs(values[:, None] - np.asarray(constants)[None, :]) < ENTROPY_TOL
    return bool(near.any(axis=1).all() and near.any(axis=0).all())


def test_criterion_5_entropy_reproduction(records):
    ok = True
    for r in records:
        ref = cf.REFERENCE_ROWS[r.row]
        ok &= np.allclose(sorted(r.profile.be2), sorted(ref.be2), atol=ENTROPY_TOL)
        ok &= np.allclose(sorted(r.profile.be1), sorted(ref.be1), atol=ENTROPY_TOL)
    pool4 = [v for r in records if r.rank == 4 for v in (*r.profile.be1, *r.profile.be2)]
    pool3 = [v for r in records if r.rank == 3 for v in (*r.profile.be1, *r.profile.be2)]
    ok = bool(
        ok
        and _constants_recovered(pool4, RANK4_ENTROPY_CONSTANTS)
        and _constants_recovered(pool3, RANK3_ENTROPY_CONSTANTS)
    )
    record(
        5,
        ok,
        "BE1/BE2 multisets match all 28 rows within 5e-4; the five rank-4 "
        "and six rank-3 caption constants are all recovered",
    )


def test_criterion_6_discrimination(records):
    by_row = {r.row: r for r in records}

    def close(a, b):
        ra, rb = by_row[a], by_row[b]
        ge = abs(ra.ge - rb.ge) < GE_TOL
        be2 = np.allclose(sorted(ra.profile.be2), sorted(rb.profile.be2), atol=ENTROPY_TOL)
        be1 = np.allclose(sorted(ra.profile.be1), sorted(rb.profile.be1), atol=ENTROPY_TOL)
        return ge, be2, be1

    distinct = True
    rows = sorted(by_row)
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            distinct &= not all(close(a, b))

    resolved = True
    for group in ((5, 15), (19, 25), (20, 21), (14, 18, 22)):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                ge, be2, be1 = close(a, b)
                resolved &= ge and not (be2 and be1)

    record(
        6,
        bool(distinct and resolved),
        "all 28 signatures pairwise distinct at 5e-4; the GE-degenerate "
        "groups 5/15, 19/25, 20/21, and 14/18/22 are separated by their "
        "entropy multisets",
    )


def test_criterion_7_triangle_oracle():
    rng = np.random.default_rng(101)
    exact_eg = 0.5647186012585346

    def draw():
        radius = 2.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return radius * complex(math.cos(angle), math.sin(angle))

    redraws = 0
    ok = True
    worst_z = worst_res = worst_eg = 0.0
    for _ in range(100):
        while True:
            try:
                z = gm.symmetric_z_iteration(draw())
                break
            except gm.IterationDiverged:
                redraws += 1
        ok &= abs(z.imag) < 1e-9
        zr = z.real
        x = 1.0 / math.sqrt(1.0 + zr * zr)
        y = zr * x
        eg = -2.0 * math.log2(abs(((x + y) ** 3 - 2.0 * y**3) / math.sqrt(8.0)))
        worst_z = max(worst_z, abs(zr - 0.6751))
        worst_res = max(worst_res, abs(gm.symmetric_cubic_residual(z)))
        worst_eg = max(worst_eg, abs(eg - 0.5647))
        ok &= worst_z < 1e-3 and worst_res < 1e-9 and abs(eg - exact_eg) < 5e-5

    marginal = sv.entropy(np.diag([0.75, 0.25]))
    ok = bool(ok and abs(marginal - 0.8113) < 5e-5 and abs(worst_eg) < 5e-5)
    record(
        7,
        ok,
        f"100 random complex starts ({redraws} pole redraws) all reach the real "
        f"fixed point (|z-0.6751| max {worst_z:.1e}, cubic residual max "
        f"{worst_res:.1e}); E_g within 5e-5 of 0.5647; marginal entropy "
        f"{marginal:.5f} vs 0.8113",
    )


def test_criterion_8_exhaustive_suites():
    results = {name: cli.SUITES[name]() for name in ("roundtrip", "stabilizer", "equivalence", "transforms")}
    ok = all(passed for passed, _ in results.values())
    detail = "; ".join(f"{name}: {msg}" for name, (_, msg) in results.items())
    record(8, ok, detail)


def test_criterion_9_degeneracy_and_reality(records):
    comp = cf.reference_comparison(records)
    reality_ok = all(c["reality_match"] for c in comp)
    divergent = sorted(c["row"] for c in comp if not c["pattern_match"])

    report = []
    for c in comp:
        if not c["pattern_match"]:
            census = ", ".join(f"{label} x{count}" for label, count in c["census"])
            report.append(
                f"row {c['row']}: computed {c['computed_pattern']} vs printed "
                f"{c['printed_pattern']}; witness grouping census: {census}"
            )
    if report:
        report.append(
            "rows 21 and 28 reproduce their printed patterns from other "
            "representatives of the same orbits (verified by a dedicated "
            "classifier test); no representative reproducing the printed "
            "pattern was found for rows 6 and 7"
        )

    ok = bool(reality_ok and divergent == list(PATTERN_DIVERGENT_ROWS))
    record(
        9,
        ok,
        "reality column matches 28/28; degeneracy column matches "
        f"{28 - len(divergent)}/28 under the declared coarsest-grouping rule; "
        "competing witness patterns for each divergent row follow",
        extra=report,
    )
