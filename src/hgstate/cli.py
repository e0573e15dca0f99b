"""Command line front end: classify, query one hypergraph, verify sweeps.

Exit codes follow a fixed contract; 1 always means an I/O or argument
problem, such as a ``query`` edge list that fails to parse (the message
names the token).  ``classify`` and ``query`` build each class record
through ``classifier.records`` (``query`` calls ``classifier.record``, its
one-code case) and ``query`` prints the code's own record: its
standardized form and entropies, and its witness's pattern and reality.
Both return 2 when a record fails, printing its one error text after a
prefix naming the policy: the text names the code, its rank and the stage,
``solve`` when a solve capped by ``--max-iter`` misses its row, ``row
match`` or ``reality``.  ``classify`` also returns 2 on colliding
signatures.  A capped solve that still matches its row gets its report
out, is named with the policy on stderr, and returns 2.  Otherwise both
return 0.  ``verify`` returns 2 when any invariant suite fails.  The flag
``--max-iter`` is checked only by ``geoment.SolvePolicy``, which names the
field on error; every solve runs ``geoment.RESTARTS`` restarts at seed 0,
each done once an iteration gains less than the fixed ``geoment.TOL``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from . import classifier as cf
from . import geoment as gm
from . import hypercore as hc
from . import orbits as ob
from . import statevec as sv


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    # SolvePolicy alone checks the value; main() reports its error through p
    p.set_defaults(policy_parser=p)
    p.add_argument("--max-iter", type=int, default=gm.DEFAULT_MAX_ITER,
                   help="iteration cap per solve, each one SQUAREM step (default %(default)s)")


@cache  # built once per process: embedders call main() many times
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hgstate",
                     description="four-qubit hypergraph states: orbits and entanglement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify all 32768 codes and report")
    p_classify.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p_classify.add_argument("--out", metavar="PATH", default=None,
                            help="write the report here instead of stdout")
    _add_policy_flags(p_classify)

    p_query = sub.add_parser("query", help="inspect a single hypergraph")
    p_query.add_argument("edges", help='comma-separated edges, e.g. "1234,123" (empty for no edges)')
    _add_policy_flags(p_query)

    p_verify = sub.add_parser("verify", help="run exhaustive invariant sweeps")
    p_verify.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    return parser


def cmd_classify(args) -> int:
    policy = args.policy
    try:
        records, graphs = cf.classify_all(policy)
    except cf.ClassificationError as exc:
        print(f"hgstate: classification failed under {policy}: {exc}", file=sys.stderr)
        return 2
    report = cf.emit_report(records, graphs, args.format, policy.seed)
    if args.out is None:
        sys.stdout.write(report)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"hgstate: cannot write report: {exc}", file=sys.stderr)
            return 1
    unconverged = [r for r in records + graphs if not r.converged]
    for r in unconverged:
        print(f"hgstate: rep {r.rep} (row {r.row or 'graph'}) did not converge "
              f"under {policy}", file=sys.stderr)
    return 2 if unconverged else 0


def cmd_query(args) -> int:
    try:
        code = hc.parse_edges(args.edges)
    except ValueError as exc:
        print(f"hgstate: bad edge list: {exc}", file=sys.stderr)
        return 1
    policy = args.policy
    sol = gm.solve_code(code, policy)
    try:
        rec = cf.record(code, sol, policy)
    except cf.ClassificationError as exc:
        print(f"hgstate: query failed under {policy}: {exc}", file=sys.stderr)
        return 2

    state = sv.build_state(code)
    print(f"edges:        {hc.format_edges(code) or '(none)'}")
    print(f"code:         {code}")
    print(f"rank:         {hc.rank(code)}")
    print(f"standardized: {hc.format_edges(rec.std) or '(none)'}  (code {rec.std})")
    print("amplitudes (basis: qubit 1 leftmost):")
    for mu in range(hc.N_BASIS):
        print(f"  |{hc.basis_string(mu)}>  {state[mu]:+.4f}")
    print(f"orbit:        rep {rec.rep}, size {rec.orbit_size}, rank {rec.rank}, m {rec.m}")
    if rec.row:
        print(f"class:        table {rec.table}, row {rec.row}")
    print(f"stabilizers:  {'ok' if sv.verify_stabilizers(code) else 'FAILED'}")
    print(f"ge:           {rec.ge:.6f}  (overlap {sol.overlap:.6f}, "
          f"restarts_hit {rec.restarts_hit}, converged {rec.converged})")
    print(f"be1:          {' '.join(f'{v:.4f}' for v in rec.profile.be1)}")
    print(f"be2:          {' '.join(f'{v:.4f}' for v in rec.profile.be2)}")
    print(f"pattern:      {rec.pattern.label}  (this code's witness)")
    print(f"reality:      {rec.pattern.reality}  (this code's witness)")
    if not rec.converged:
        print(f"hgstate: code {code} did not converge under {policy}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# exhaustive verification sweeps (all vectorized over the full code space)


def suite_roundtrip() -> tuple[bool, str]:
    """Sign-function round trip over all 32768 codes, on the packed sign
    words: each has g(0000) = 0, and ``hc.codes_of_words`` gives the code back."""
    try:
        ok = np.array_equal(hc.codes_of_words(hc.sign_words(hc.ALL_CODES)), hc.ALL_CODES)
    except ValueError:  # some word has g(0000) = 1
        ok = False
    return ok, f"{hc.N_CODES} codes round-tripped" if ok else "round trip broke"


def _all_defects():
    return sv.stabilizer_defects(hc.ALL_CODES)


def suite_stabilizer(defects=_all_defects) -> tuple[bool, str]:
    """The generators K_i pairwise commute, for every code."""
    noncommuting = defects()[1]
    for (i, j), bad in zip(sv.PAIRS, noncommuting):
        if bad.any():
            return False, f"K_{i} and K_{j} do not commute on {int(bad.sum())} states"
    return True, f"{hc.N_CODES} codes x 6 stabilizer pairs commute"


def suite_equivalence(defects=_all_defects) -> tuple[bool, str]:
    """K_i fixes every state: the neighborhood controlled-Z product maps
    |H> to X_i |H> exactly, for every code and vertex."""
    unfixed = defects()[0]
    for i, bad in zip(hc.VERTICES, unfixed):
        if bad.any():
            return False, f"K_{i} does not fix {int(bad.sum())} states"
    return True, f"{hc.N_CODES} codes x 4 stabilizers fix their states"


def suite_transforms() -> tuple[bool, str]:
    """Code-level X and Z moves track the statevector-level Pauli action.

    X on vertex i permutes amplitudes by the bit-i flip up to one global
    sign, which must equal the loop flag on i; Z flips the signs of the
    eight amplitudes with mu_i = 1, the sign word of the loop {i}.  Both are
    checked on sign words read through the move tables with ``np.take``."""
    g = hc.sign_words(hc.ALL_CODES)
    loops = hc.sign_words([hc.code_of_edges([1 << (i - 1)]) for i in hc.VERTICES])
    for i in hc.VERTICES:
        diff = np.take(g, hc.x_image_table(i)) ^ hc.flip_basis(g, i)
        if (diff != hc.loop_words(hc.ALL_CODES, i)).any():
            return False, f"X move on vertex {i} broke the amplitude action"
        if ((np.take(g, hc.z_image_table(i)) ^ g) != loops[i - 1]).any():
            return False, f"Z move on vertex {i} broke the amplitude action"
    return True, "X and Z moves consistent with the amplitude action on all codes"


def suite_closure() -> tuple[bool, str]:
    """Each class is one orbit, by the orbit-stabilizer certificate of ``ob``."""
    table = ob.enumerate_orbits()
    cid, n = table.class_id, table.n_orbits
    if not np.array_equal(np.take(cid, hc.strip_loops(hc.ALL_CODES)), cid):
        return False, "class ids differ within a Z coset"
    images = ob.images(table.reps)
    left = (np.take(cid, images) != np.arange(n)).any(axis=0)
    sizes = np.bincount(cid, minlength=n)[:n]
    short = (images == table.reps).sum(axis=0) * sizes != ob.GROUP_ORDER
    for k in np.flatnonzero(left | short)[:1]:
        why = "an image of its rep lies outside it" if left[k] else "its size is not 6144/|Stab|"
        return False, f"class {k} (rep {table.reps[k]}): {why}"
    return bool(sizes.sum() == hc.N_CODES), f"{n} single-orbit classes hold {sizes.sum()} codes"


def suite_census() -> tuple[bool, str]:
    """Code totals by standardized rank match the expected partition."""
    table = ob.enumerate_orbits()
    try:
        census = ob.rank_census(table)
    except RuntimeError as exc:  # an orbit mixing ranks is a failed check, not a crash
        return False, str(exc)
    got = (census.get(4, 0), census.get(3, 0),
           census.get(2, 0) + census.get(1, 0) + census.get(0, 0))
    counts = (
        int((table.rep_rank == 4).sum()),
        int((table.rep_rank == 3).sum()),
    )
    ok = got == (16384, 15360, 1024) and counts == (11, 17)
    detail = (f"rank4 {got[0]}, rank3 {got[1]}, graphs {got[2]}; "
              f"orbit counts {counts[0]}/{counts[1]}")
    return ok, detail


SUITES = {
    "roundtrip": suite_roundtrip,
    "stabilizer": suite_stabilizer,
    "equivalence": suite_equivalence,
    "transforms": suite_transforms,
    "closure": suite_closure,
    "census": suite_census,
}


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    # the two K_i suites share one evaluation, made afresh by every run
    defects = cache(_all_defects)
    failed = False
    for name in names:
        suite = SUITES[name]
        ok, detail = suite(defects) if name in ("equivalence", "stabilizer") else suite()
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed = failed or not ok
    return 2 if failed else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command != "verify":
            try:
                args.policy = gm.SolvePolicy(args.max_iter)
            except ValueError as exc:
                args.policy_parser.error(str(exc))
    except SystemExit as exc:
        # argparse exits on bad flags and on --help; report the code
        # instead so embedders can call main() without trapping exits
        return int(exc.code or 0)
    if args.command == "classify":
        return cmd_classify(args)
    if args.command == "query":
        return cmd_query(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())

