#!/usr/bin/env python3
"""Benchmark of the hgstate package, run from the root of a checkout.

    python3 hgbench/bench.py --workload classify --seed 0 --seconds 32 --trace 0

Workloads (see README.md for why each was chosen):

- ``classify``: one full classification, as ``hgstate classify`` runs it.
- ``query``: closed loop, one client, ``hgstate query EDGES`` per code.
- ``verify``: ``hgstate verify --suite all``.
- ``all``: every workload untraced and traced, with a summary.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Everything else printed before it is for people.  A result
file with the environment, the checks and (traced) the spans goes to
``hgbench/out/``.  The exit code is 1 when a correctness check fails and 2
when the package source cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

# a run never measures longer than this, whatever the minimum sample count
HARD_CAP_S = 120.0
SETUP_RUNS = 5
SETUP_CODE = "import hgstate.cli\nfrom hgstate import orbits\norbits.enumerate_orbits()\n"

# ---------------------------------------------------------------------------
# expected values, kept apart from the package so a change there cannot
# move the yardstick: the printed reference tables (GE to 4 decimals and the
# entropy letters), the rows with a printed closed form, and the canonical
# orbit representative of every row

_LETTERS = {"a": 0.6561, "b": 1.2624, "c": 1.6773, "d": 0.5436, "e": 0.9544,
            "r": 0.8113, "s": 1.5, "t": 1.2238, "u": 1.6009, "0": 0.0, "1": 1.0}
PRINTED = {
    1: (0.3043, "aaa", "dddd"), 2: (0.8157, "abb", "eedd"), 3: (1.4891, "acc", "eeee"),
    4: (0.8954, "bbb", "eede"), 5: (1.5261, "bcc", "eeee"), 6: (0.8916, "bbb", "eeee"),
    7: (1.1360, "bbb", "eede"), 8: (1.1732, "cbc", "eeee"), 9: (1.4316, "bcc", "eeee"),
    10: (1.1165, "cbc", "eeee"), 11: (1.1726, "bbb", "eeee"), 12: (0.5647, "rrr", "rrr0"),
    13: (1.5417, "sss", "1r11"), 14: (1.0, "ssr", "1rr1"), 15: (1.5261, "sss", "1111"),
    16: (0.6115, "rtt", "rrrr"), 17: (1.2284, "ruu", "11rr"), 18: (1.0, "stt", "rrr1"),
    19: (1.4150, "suu", "11r1"), 20: (1.4569, "stt", "rr11"), 21: (1.4569, "suu", "1111"),
    22: (1.0, "ttt", "1rrr"), 23: (0.6781, "ttt", "rrrr"), 24: (1.3173, "uut", "111r"),
    25: (1.4150, "uut", "r11r"), 26: (1.2230, "ttt", "1111"), 27: (1.2767, "tuu", "rr11"),
    28: (0.8301, "ttt", "rrrr"),
}
CLOSED_FORM_ROWS = frozenset((5, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 25, 26, 28))
REP_ROW = {
    16384: 1, 16388: 2, 16672: 3, 16404: 4, 16676: 5, 16660: 6, 16436: 7, 17200: 8,
    16692: 9, 17204: 10, 19252: 11, 64: 12, 832: 13, 320: 14, 2880: 15, 1088: 16,
    3136: 17, 1104: 18, 3152: 19, 1136: 20, 3184: 21, 5184: 22, 5188: 23, 5216: 24,
    5220: 25, 13376: 26, 13380: 27, 13652: 28,
}
TOTALS = {"rank4": 16384, "rank3": 15360, "graphs": 1024}
# the codes whose solve at the default policy stops at max_iter
# (``converged=False``), found by solving all 32768 codes; all lie in the
# orbit of row 28.  ``query`` leaves them out unless asked for known failures
UNCONVERGED_CODES = frozenset((13654, 13664, 13795, 13915, 14035, 14060, 14063, 15431,
                               15472, 15558, 15564, 15600, 15603, 15611, 16195, 16320))
N_CLASSES = 39
TABLE_TOL = 5e-4
CLOSED_TOL = 1e-6
SUITE_NAMES = ("census", "closure", "equivalence", "roundtrip", "stabilizer", "transforms")

# the ROADMAP baseline (default policy, seed 0) that ``--workload all``
# compares its classify runs with; the ROADMAP's 9647 counts every sweep,
# and is set against both the solve-only and the total count
ROADMAP_BASELINE = {"geoment.solve_sweeps": 9647, "geoment.sweeps_total": 9647,
                    "geoment.solve_sweeps_max": 4361, "geoment.polish_calls": 15,
                    "classify_s": 2.0}


# ---------------------------------------------------------------------------
# statistics


def min_samples(pct: int) -> int:
    """Fewest samples that leave at least ten beyond the pct-th percentile."""
    return -(-1000 // (100 - pct))


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def beyond(values, pct: int) -> int:
    """Number of samples strictly above the pct-th percentile."""
    cut = percentile(values, pct)
    return sum(v > cut for v in values)


# ---------------------------------------------------------------------------
# the package under test


class Package:
    """The hgstate modules, imported from the checkout's ``src/``."""

    def __init__(self):
        if not (SRC / "hgstate" / "__init__.py").is_file():
            raise FileNotFoundError(f"no hgstate package source under {SRC}")
        sys.path.insert(0, str(SRC))
        from hgstate import classifier, cli, geoment, hypercore, orbits, statevec

        if Path(cli.__file__).resolve().parent != SRC / "hgstate":
            raise FileNotFoundError(f"hgstate imported from {cli.__file__}, not {SRC}")
        self.hc, self.ob, self.sv = hypercore, orbits, statevec
        self.gm, self.cf, self.cli = geoment, classifier, cli
        # kept before any wrapper replaces the cached function
        self.clear_orbit_cache = getattr(orbits.enumerate_orbits, "cache_clear", lambda: None)

    def trace_targets(self):
        """(holder, key, span name, kind, on_return) for every traced call:
        the public functions that cross module boundaries, the two private
        geoment routines the sweep and polish counts need, and each verify
        suite through the ``SUITES`` table the CLI dispatches on."""

        def spans(module, *names, on_return=None):
            layer = module.__name__.rsplit(".", 1)[1]
            return [(module, n, f"{layer}.{n}", "span", on_return) for n in names]

        def solved(span, args, result):
            span.meta["code"] = int(args[0])
            span.meta["converged"] = bool(getattr(result, "converged", True))

        def command(span, args, result):
            span.meta["command"] = args[0][0] if args and args[0] else None

        targets = spans(self.hc, "parse_edges", "format_edges", "basis_string", "standardize",
                        "rank", "signs_from_hypergraph", "x_image_table", "z_image_table",
                        "permutation_image_table", "sign_matrix")
        targets += spans(self.ob, "enumerate_orbits", "generator_tables", "orbit_of",
                         "rank_census")
        targets += spans(self.sv, "build_state", "entropy_profile", "verify_stabilizers")
        targets += spans(self.gm, "solve_code", on_return=solved)
        targets += spans(self.gm, "degeneracy_pattern", "_best_real_overlap")
        targets.append((self.gm, "_sweep", "geoment._sweep", "sweeps", None))
        targets += spans(self.cf, "classify_all", "match_row", "emit_report")
        targets += spans(self.cli, "main", on_return=command)
        suites = getattr(self.cli, "SUITES", {})
        targets += [(suites, s, f"cli.verify.{s}", "span", None) for s in SUITE_NAMES]
        return targets


def run_cli(pkg, argv):
    """``hgstate ARGV`` in process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = pkg.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# workloads: call(next_input()) is the timed operation, check() judges all
# outputs afterwards and returns (failed ops, problems); a problem makes the
# run incorrect


class Classify:
    """Every call classifies at the default policy, as a bare ``hgstate
    classify`` does, so every run times the same work: over policy seeds
    0-9 the solver's work ranges from 8183 to 11787 sweeps, a spread no
    time bound could hold.  One untimed classification warms up first and
    is checked and counted like the timed ones.  With ``known_failures``
    it runs at the workload seed as policy seed instead, so a seed where a
    solve does not converge (seed 7 today) shows as a failed op."""

    tail_pct = 50  # fewer than 20 classifications fit in a run
    min_calls = 3
    ops_per_call = N_CLASSES

    def __init__(self, pkg, seed, known_failures=False):
        self.pkg = pkg
        self.sha256 = {}
        warm_up = pkg.gm.SolvePolicy(seed=seed) if known_failures else pkg.gm.SolvePolicy()
        self.untimed = [self.classify(warm_up)]

    def next_input(self):
        return None

    def call(self, _):
        return self.classify(self.pkg.gm.SolvePolicy())

    def classify(self, policy):
        """(policy seed, classes, reports) of one classification, or
        (policy seed, the ClassificationError)."""
        pkg = self.pkg
        pkg.clear_orbit_cache()
        try:
            table = pkg.ob.enumerate_orbits()
            records, graphs = pkg.cf.classify_all(policy, table)
            reports = {fmt: pkg.cf.emit_report(records, graphs, fmt, policy.seed)
                       for fmt in ("json", "csv", "md")}
        except pkg.cf.ClassificationError as exc:
            return policy.seed, exc
        return policy.seed, records + graphs, reports

    def check(self, outputs):
        failed, problems = 0, []
        for seed, *out in outputs:
            if isinstance(out[0], Exception):
                failed += N_CLASSES
                problems.append(f"classification at policy seed {seed} failed: {out[0]}")
                continue
            classes, reports = out
            faults = check_reports(reports, seed)
            digest = hashlib.sha256(reports["json"].encode()).hexdigest()
            if self.sha256.setdefault(seed, digest) != digest:
                faults.append(f"json report at policy seed {seed} differs between repetitions")
            if faults:
                failed += N_CLASSES
                problems.extend(faults)
            else:
                failed += sum(not c.converged for c in classes)
        return failed, sorted(set(problems))


def _multiset_close(got, letters, tol) -> bool:
    want = sorted(_LETTERS[ch] for ch in letters)
    return len(got) == len(want) and all(abs(g - w) < tol for g, w in zip(sorted(got), want))


def check_reports(reports, seed) -> list[str]:
    """The reproduction gates, read from the emitted reports."""
    doc = json.loads(reports["json"])
    classes = doc["classes"]
    faults = []
    rows = [c["paper_row"] for c in classes if c["paper_row"] is not None]
    if sorted(rows) != list(range(1, 29)) or len(classes) != N_CLASSES:
        faults.append(f"rows not matched one-to-one: {sorted(rows)} of {len(classes)} classes")
    for c in classes:
        row = c["paper_row"]
        if row not in PRINTED:
            continue
        ge, be2, be1 = PRINTED[row]
        if abs(c["ge"] - ge) >= TABLE_TOL:
            faults.append(f"row {row}: ge {c['ge']:.6f} vs printed {ge}")
        if not (_multiset_close(c["be2"], be2, TABLE_TOL) and _multiset_close(c["be1"], be1, TABLE_TOL)):
            faults.append(f"row {row}: entropies off the printed letters")
        closed = c["ge_closed_form"]
        if (closed is not None) != (row in CLOSED_FORM_ROWS):
            faults.append(f"row {row}: closed form presence changed")
        elif closed is not None and abs(c["ge"] - closed) >= CLOSED_TOL:
            faults.append(f"row {row}: ge {c['ge']!r} vs closed form {closed!r}")
    if doc["totals"] != TOTALS:
        faults.append(f"totals {doc['totals']} != {TOTALS}")
    if doc["seed"] != seed:
        faults.append(f"report seed {doc['seed']} != {seed}")
    if reports["csv"].count("\n") != N_CLASSES + 1:
        faults.append("csv report does not hold one line per class")
    md_rows = [ln for ln in reports["md"].splitlines() if ln.startswith("| ") and not ln.startswith("| row ")]
    if len(md_rows) != N_CLASSES:
        faults.append("markdown report does not hold one row per class")
    return faults


def query_stream(seed: int, class_id, skip=frozenset()):
    """Codes to query, a pure function of the seed and the orbit table.

    Every code is equally likely at every position, and the stream visits
    all 32768 codes once before repeating.  Codes are ordered by orbit
    (randomly within it) and walked in bit-reversed index order from a
    random offset, so any prefix of length n is close to a stride-32768/n
    sample of that order: it holds each orbit in proportion to its size,
    and the mix of cheap and expensive orbits does not swing with the seed.
    Codes in ``skip`` are passed over.
    """
    n = len(class_id)
    bits = n.bit_length() - 1
    if n != 1 << bits:
        raise ValueError(f"code space of {n} is not a power of two")
    rng = np.random.default_rng(seed)
    order = np.lexsort((rng.random(n), np.asarray(class_id)))
    offset = int(rng.integers(n))
    while True:
        for k in range(n):
            rev = int(format(k, f"0{bits}b")[::-1], 2)
            code = int(order[(offset + rev) % n])
            if code not in skip:
                yield code


_QUERY_FIELDS = {
    "code": re.compile(r"^code:\s+(\d+)$", re.M),
    "orbit": re.compile(r"^orbit:\s+rep (\d+), size \d+, rank (\d)", re.M),
    "row": re.compile(r"^class:\s+table \w+, row (\d+)$", re.M),
    "stabilizers": re.compile(r"^stabilizers:\s+(\S+)$", re.M),
    "converged": re.compile(r"converged (\w+)\)$", re.M),
}


class Query:
    tail_pct = 95
    min_calls = min_samples(95)
    ops_per_call = 1

    def __init__(self, pkg, seed, known_failures=False):
        self.pkg = pkg
        self.untimed = []
        skip = frozenset() if known_failures else UNCONVERGED_CODES
        self.codes = query_stream(seed, pkg.ob.enumerate_orbits().class_id, skip)

    def next_input(self):
        return next(self.codes)

    def call(self, code):
        try:
            rc, text = run_cli(self.pkg, ["query", self.pkg.hc.format_edges(code)])
        except self.pkg.cf.ClassificationError as exc:
            return code, exc
        return code, (rc, text)

    def check(self, outputs):
        failed, problems = 0, []
        for code, out in outputs:
            fault = check_query(code, out)
            if fault:
                problems.append(fault)
            if fault or _QUERY_FIELDS["converged"].search(out[1]).group(1) != "True":
                failed += 1
        return failed, problems


def check_query(code, out) -> str | None:
    if isinstance(out, Exception):
        return f"code {code}: {out}"
    rc, text = out
    got = {k: rx.search(text) for k, rx in _QUERY_FIELDS.items()}
    if rc != 0 or not all(got[k] for k in ("code", "orbit", "stabilizers", "converged")):
        return f"code {code}: exit {rc} or incomplete output"
    if int(got["code"].group(1)) != code:
        return f"code {code}: output names code {got['code'].group(1)}"
    if got["stabilizers"].group(1) != "ok":
        return f"code {code}: stabilizer check printed {got['stabilizers'].group(1)}"
    rep, rank = int(got["orbit"].group(1)), int(got["orbit"].group(2))
    if rank in (3, 4):
        row = int(got["row"].group(1)) if got["row"] else None
        if row != REP_ROW.get(rep):
            return f"code {code}: row {row}, but its orbit rep {rep} is row {REP_ROW.get(rep)}"
    elif got["row"]:
        return f"code {code}: rank {rank} orbit matched a row"
    return None


class Verify:
    tail_pct = 90
    min_calls = min_samples(90)
    ops_per_call = len(SUITE_NAMES)

    def __init__(self, pkg, seed, known_failures=False):
        self.pkg = pkg
        self.untimed = []

    def next_input(self):
        return None

    def call(self, _):
        self.pkg.clear_orbit_cache()
        return run_cli(self.pkg, ["verify", "--suite", "all"])

    def check(self, outputs):
        failed, problems = 0, []
        for rc, text in outputs:
            passed = set(re.findall(r"^(\w+): PASS", text, re.M))
            missing = [s for s in SUITE_NAMES if s not in passed]
            failed += len(missing)
            if missing or rc != 0:
                problems.append(f"exit {rc}; suites without PASS: {missing}")
        return failed, sorted(set(problems))


WORKLOADS = {"classify": Classify, "query": Query, "verify": Verify}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced call


# the move tables whose self time is hypercore.tables_s
TABLES = ("hypercore.x_image_table", "hypercore.z_image_table",
          "hypercore.permutation_image_table", "hypercore.sign_matrix")


def _sum(spans, name, lo, hi):
    return sum(s.duration for s in tracing.outermost(spans, name, lo, hi))


def layer_values(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers of one traced call, whose spans are ``spans[lo:hi]``."""
    kids = tracing.children_of(spans, lo, hi)
    solves = tracing.outermost(spans, "geoment.solve_code", lo, hi)
    polish = [s for s in spans[lo:hi] if s.name == "geoment._best_real_overlap"]
    sweeps = sum(s.sweeps for s in solves)
    solve_s = sum(s.duration for s in solves)
    values = {
        "geoment.solve_s": solve_s,
        "geoment.solve_calls": len(solves),
        "geoment.solve_sweeps": sweeps,
        "geoment.solve_sweeps_max": max((s.sweeps for s in solves), default=0),
        "geoment.sweeps_total": sum(s.sweeps for s in spans[lo:hi]),
        "geoment.sweep_us": 1e6 * solve_s / sweeps if sweeps else 0.0,
        "geoment.unconverged": sum(not s.meta.get("converged", True) for s in solves),
        "geoment.degeneracy_s": _sum(spans, "geoment.degeneracy_pattern", lo, hi),
        "geoment.polish_calls": len(polish),
        "geoment.polish_sweeps": sum(s.sweeps for s in polish),
        "statevec.entropy_s": _sum(spans, "statevec.entropy_profile", lo, hi),
        "statevec.stabilizer_s": _sum(spans, "statevec.verify_stabilizers", lo, hi),
        "orbits.enumerate_s": _sum(spans, "orbits.enumerate_orbits", lo, hi),
        "orbits.rank_census_s": _sum(spans, "orbits.rank_census", lo, hi),
        "orbits.orbit_of_s": _sum(spans, "orbits.orbit_of", lo, hi),
        "hypercore.tables_s": sum(
            tracing.self_time(s, kids.get(i, []))
            for i, s in enumerate(spans[lo:hi], lo) if s.name in TABLES),
        "classifier.match_s": _sum(spans, "classifier.match_row", lo, hi),
        "classifier.emit_s": _sum(spans, "classifier.emit_report", lo, hi),
    }
    for suite in SUITE_NAMES:
        values[f"cli.verify.{suite}_s"] = _sum(spans, f"cli.verify.{suite}", lo, hi)
    values["cli.query_self_ms"] = 1e3 * sum(
        tracing.self_time(s, kids.get(i, []))
        for i, s in enumerate(spans[lo:hi], lo)
        if s.name == "cli.main" and s.meta.get("command") == "query")
    return values


# the traced names each per-layer metric is built on; a metric is reported
# missing (left out, with a note on stderr) when one of them is gone
_SOLVE, _SWEEP = "geoment.solve_code", "geoment._sweep"
_POLISH = "geoment._best_real_overlap"
LAYER_SOURCES = {
    "geoment.solve_s": (_SOLVE,),
    "geoment.solve_calls": (_SOLVE,),
    "geoment.solve_sweeps": (_SOLVE, _SWEEP),
    "geoment.solve_sweeps_max": (_SOLVE, _SWEEP),
    "geoment.sweeps_total": (_SWEEP,),
    "geoment.sweep_us": (_SOLVE, _SWEEP),
    "geoment.unconverged": (_SOLVE,),
    "geoment.degeneracy_s": ("geoment.degeneracy_pattern",),
    "geoment.polish_calls": (_POLISH,),
    "geoment.polish_sweeps": (_POLISH, _SWEEP),
    "statevec.entropy_s": ("statevec.entropy_profile",),
    "statevec.stabilizer_s": ("statevec.verify_stabilizers",),
    "orbits.enumerate_s": ("orbits.enumerate_orbits",),
    "orbits.rank_census_s": ("orbits.rank_census",),
    "orbits.orbit_of_s": ("orbits.orbit_of",),
    "hypercore.tables_s": TABLES,
    "classifier.match_s": ("classifier.match_row",),
    "classifier.emit_s": ("classifier.emit_report",),
    **{f"cli.verify.{suite}_s": (f"cli.verify.{suite}",) for suite in SUITE_NAMES},
    "cli.query_self_ms": ("cli.main",),
}


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the speed of a core shifts by a third or more for
# minutes at a time, as other tenants come and go, and every wall time
# moves with it.  So the gated times are reported at reference speed: wall
# times multiplied by (REF_MS / r) ** REF_EXPONENT, where r is the median
# time of a fixed reference computation timed every REF_EVERY_S throughout
# the same run.  The reference shares no code with hgstate, so no change to
# the package can move it; it mixes the package's kinds of work (bit loops,
# small complex numpy contractions, string formatting).  Its time swings
# more than the package's between the host's fast and slow phases, hence
# the exponent below 1 (README.md gives the measurements behind it).

REF_MS = 13.0  # the reference's median time on the host of README.md
REF_EXPONENT = 0.75
REF_EVERY_S = 0.5


def reference_work() -> int:
    rng = np.random.default_rng(1)
    t = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    phi = rng.normal(size=(64, 4, 2)) + 0j
    acc = 0
    for k in range(120):
        x = np.einsum("abcd,ra,rb,rc->rd", t, phi[:, 0], phi[:, 1], phi[:, 2])
        phi[:, 3] = x / np.linalg.norm(x, axis=1, keepdims=True)
        for h in range(64):
            acc += bin((h * 2654435761 + k) & 0xFFFF).count("1")
        acc += len(f"{k}:{acc}")
    return acc


def reference_ms(reps: int = 3) -> list[float]:
    """Wall times of ``reps`` runs of the reference computation, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        times.append(1e3 * (time.perf_counter() - t0))
    return times


# ---------------------------------------------------------------------------
# one run


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": threads, "git_rev": rev}


def measure_setup(refs: list[float], runs: int = SETUP_RUNS) -> list[float]:
    """Wall times of fresh processes that import ``hgstate.cli`` and
    enumerate the orbits, which every CLI call pays; the reference is timed
    before each, into ``refs``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(runs):
        refs.extend(reference_ms())
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round every set-up time to them
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        rc = proc.wait()
        watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return times


def run_once(pkg, name: str, seed: int, seconds: float, trace: bool,
             known_failures: bool = False) -> dict:
    """Measure one workload for ``seconds`` and check its outputs.

    A traced run makes every call twice, traced and untraced, in
    alternating order, so the tracing overhead is measured on the same
    inputs under the same conditions as the traced numbers.
    """
    refs = []
    setup = [] if trace else measure_setup(refs)
    wl = WORKLOADS[name](pkg, seed, known_failures)
    tracer = tracing.Tracer() if trace else None
    targets = pkg.trace_targets() if trace else []
    plain, traced, outputs, firsts = [], [], [], []

    def timed(inp, times):
        t0 = time.perf_counter()
        outputs.append(wl.call(inp))
        times.append(time.perf_counter() - t0)

    start = ref_at = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(outputs) >= wl.min_calls):
            break
        inp = wl.next_input()
        if not trace:
            if time.perf_counter() - ref_at >= REF_EVERY_S:
                refs.extend(reference_ms())
                ref_at = time.perf_counter()
            timed(inp, plain)
            continue
        for traced_call in (True, False) if len(traced) % 2 == 0 else (False, True):
            if traced_call:
                firsts.append(len(tracer.spans))
                with tracer.installed(targets):
                    timed(inp, traced)
            else:
                timed(inp, plain)
    failed, problems = wl.check(wl.untimed + outputs)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": (len(wl.untimed) + len(outputs)) * wl.ops_per_call, "failed": failed,
        "correct": not problems, "problems": problems[:20],
        "calls": len(plain), "traced_calls": len(traced),
    }
    if not trace:
        ms = [1e3 * t for t in plain]
        # the mean, not the median, is the gated call time: a classify run
        # holds about ten calls, and the median of so few jumps between the
        # host's fast and slow phases while the mean moves with their share
        speed = (REF_MS / statistics.median(refs)) ** REF_EXPONENT
        result["metrics"] = {
            "setup_s": (statistics.median(setup) * speed, "s"),
            "call_mean_ms": (statistics.fmean(ms) * speed, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["latency"] = {
            "samples": len(ms), "p50_ms": statistics.median(ms), "tail_pct": wl.tail_pct,
            "tail_ms": percentile(ms, wl.tail_pct), "beyond": beyond(ms, wl.tail_pct),
            "calls_per_s": len(plain) / sum(plain), "wall_mean_ms": statistics.fmean(ms),
            "wall_setup_s": statistics.median(setup), "reference_ms": statistics.median(refs),
            "reference_samples": len(refs)}
        result["setup_runs_s"] = setup
    else:
        bounds = firsts + [len(tracer.spans)]
        per_call = [layer_values(tracer.spans, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        metrics = {}
        for key in per_call[0]:
            if any(src in tracer.missing for src in LAYER_SOURCES[key]):
                continue
            vals = [v[key] for v in per_call]
            agg = max(vals) if key.endswith("_max") else statistics.median(vals)
            metrics[key] = (agg, layer_unit(key))
        overhead = 1e3 * (statistics.median(traced) - statistics.median(plain))
        metrics["trace.overhead_ms"] = (overhead, "ms")
        result["metrics"] = metrics
        result["missing"] = sorted(tracer.missing)
        result["traced_call_ms"] = 1e3 * statistics.median(traced)
        result["plain_call_ms"] = 1e3 * statistics.median(plain)
        result["solves"] = solve_table(tracer.spans, firsts[0], bounds[1])
        # the spans of the first 20 traced calls; a query run makes ~10^4
        end = firsts[20] if len(firsts) > 20 else len(tracer.spans)
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.sweeps]
                           for s in tracer.spans[:end]]
    if name == "classify":
        result["report_sha256"] = {str(k): v for k, v in wl.sha256.items()}
    return result


def layer_unit(key: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if key.endswith(suffix):
            return unit
    return "count"


def solve_table(spans, lo: int, hi: int) -> list[dict]:
    """Per-solve time, sweeps and degeneracy path of one traced call."""
    out = []
    for i, s in enumerate(spans[lo:hi], lo):
        if s.name == "geoment.solve_code":
            out.append({"code": s.meta.get("code"), "s": s.duration, "sweeps": s.sweeps,
                        "converged": s.meta.get("converged")})
        elif s.name == "geoment.degeneracy_pattern":
            polished = any(c.name == "geoment._best_real_overlap" and c.parent == i
                           for c in spans[i + 1:hi])
            out.append({"degeneracy_s": s.duration, "path": "polish" if polished else "gauge"})
    return out


# ---------------------------------------------------------------------------
# output


def named_metrics(result) -> dict:
    """The end-to-end numbers under the names the workloads are discussed by."""
    m = {k: v for k, (v, _) in result["metrics"].items()}
    out = {"ops_failed_frac": (result["failed"] / result["attempted"], "ratio")}
    if result["trace"]:
        return out
    out["setup_s"] = (m["setup_s"], "s")
    out["peak_rss_mb"] = (m["peak_rss_mb"], "MB")
    lat = result["latency"]
    out["wall_setup_s"] = (lat["wall_setup_s"], "s")
    out["wall_call_mean_ms"] = (lat["wall_mean_ms"], "ms")
    out["reference_ms"] = (lat["reference_ms"], "ms")
    name = result["workload"]
    if name == "classify":
        out["classify_s"] = (lat["p50_ms"] / 1e3, "s")
    elif name == "query":
        out["query_qps"] = (lat["calls_per_s"], "queries/s")
        out["query_p50_ms"] = (lat["p50_ms"], "ms")
        out["query_p95_ms"] = (lat["tail_ms"], "ms")
    else:
        out["verify_s"] = (lat["p50_ms"] / 1e3, "s")
    return out


def report(result) -> None:
    head = f"{result['workload']} seed {result['seed']} trace {result['trace']}"
    print(f"# {head}: {result['calls']} untraced / {result['traced_calls']} traced calls, "
          f"{result['attempted']} ops, {result['failed']} failed")
    if "latency" in result:
        t = result["latency"]
        print(f"# p{t['tail_pct']} of {t['samples']} calls has {t['beyond']} beyond it")
    for key, (value, unit) in {**result["metrics"], **named_metrics(result)}.items():
        print(f"{key} {value:.6g} {unit}")
    for name in result.get("missing", []):
        print(f"# missing: {name} is gone, its metrics are not reported", file=sys.stderr)
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)


def contract_line(result) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def save(result, label: str) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=1) + "\n")


def baseline_check(classify_traced, classify_plain) -> list[str]:
    """Compare the classify runs with the ROADMAP baseline; report, never
    adjust.  Counts must agree exactly, the time within half."""
    got = {k: v for k, (v, _) in classify_traced["metrics"].items()}
    got["classify_s"] = classify_plain["latency"]["p50_ms"] / 1e3
    lines = []
    for key, want in ROADMAP_BASELINE.items():
        have = got.get(key)
        if key == "classify_s":
            agree = have is not None and abs(have - want) <= 0.5 * want
        else:
            agree = have == want
        lines.append(f"{key}: measured {have}, ROADMAP {want}: {'agrees' if agree else 'DISAGREES'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="also run the inputs a known solver defect makes fail: classify "
                             "warms up at the workload seed as policy seed, and query keeps "
                             "the codes that do not converge at the default policy")
    args = parser.parse_args(argv)
    try:
        pkg = Package()
    except FileNotFoundError as exc:
        print(f"hgbench: {exc}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in traces:
            res = run_once(pkg, name, args.seed, args.seconds, trace, args.known_failures)
            res["environment"] = env
            save(res, f"{name}-seed{args.seed}-trace{int(trace)}")
            report(res)
            results[(name, trace)] = res
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{k}": {"value": v, "unit": u}
                               for (n, t), r in results.items()
                               for k, (v, u) in r["metrics"].items()}}
        lines = baseline_check(results[("classify", True)], results[("classify", False)])
        summary["baseline_check"] = lines
        for line in lines:
            print(f"# baseline {line}")
        summary["environment"] = env
        summary["report_sha256"] = results[("classify", False)]["report_sha256"]
        save(summary, f"all-seed{args.seed}")
        print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if summary["correct"] else 1
    (res,) = results.values()
    print(contract_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
