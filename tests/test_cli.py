"""Exit-code and output contract of the command-line front end,
driven in process through cli.main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from hgstate import classifier as cf
from hgstate import cli
from hgstate import geoment as gm
from hgstate import hypercore as hc
from hgstate import orbits as ob
from hgstate import statevec as sv


def test_no_subcommand_exits_1(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--restarts", "0"],  # the restart count is fixed, not a flag
        ["classify", "--max-iter", "0"],
        ["classify", "--format", "yaml"],
        ["verify", "--suite", "nonsense"],
        ["query"],
        ["classify", "--seed", "-1"],  # so is the seed
        ["verify", "--cache", "x"],
        ["query", "1234", "--restarts", "2.5"],  # gone from query as well
        ["classify", "--max-iter", "2.5"],
        ["query", "1234", "--tol", "1e-9"],  # the tolerance is fixed, not a flag
    ],
)
def test_invalid_flags_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    # the message names the flag, or the SolvePolicy field it sets
    flag = next((a for a in argv if a.startswith("--")), None)
    if flag:
        assert flag[2:].replace("-", "_") in err.replace("-", "_")


def test_classify_json_report(tmp_path, classification, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["classify", "--format", "json", "--out", str(out)])
    assert code == 0
    # the CLI's one solve configuration is the library default
    assert out.read_text() == cf.emit_report(*classification, "json", 0)
    rep = json.loads(out.read_text())
    assert len(rep["classes"]) == 39
    assert rep["seed"] == 0
    rows = [c["paper_row"] for c in rep["classes"] if c["paper_row"]]
    assert sorted(rows) == list(range(1, 29))


def test_classify_stdout_and_determinism(classification, capsys):
    # one run, compared with the report of a separate session classification
    assert cli.main(["classify", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == cf.emit_report(*classification, "csv", 0)
    assert out.count("\n") == 40  # header + 39 classes


def test_classify_out_failure_exits_1(tmp_path, classification, monkeypatch, capsys):
    # the write fails after the classification, so reuse the session's
    monkeypatch.setattr(cf, "classify_all", lambda policy: classification)
    missing = tmp_path / "no" / "such" / "dir" / "report.json"
    assert cli.main(["classify", "--out", str(missing)]) == 1
    assert "cannot write report" in capsys.readouterr().err


def test_classify_row_match_failure_names_rep_stage_and_policy(orbit_table, monkeypatch, capsys):
    # no computed value lies strictly within 0 of a printed one, so the
    # first rank-3 or rank-4 orbit fails its row match
    monkeypatch.setattr(cf, "TABLE_TOL", 0.0)
    rep, rank = next((int(rep), int(rank)) for rep, rank in zip(orbit_table.reps, orbit_table.rep_rank)
                     if rank in (3, 4))
    assert cli.main(["classify"]) == 2
    err = capsys.readouterr().err
    assert f"code {rep} (rank {rank}), row match: no table " in err
    assert str(gm.SolvePolicy()) in err


@pytest.mark.parametrize("argv, subject", [
    (["classify"], "code 1104 (rank 3), "),
    (["query", hc.format_edges(1104)], "code 1104 (rank 3), "),
], ids=["classify", "query"])
def test_capped_solve_is_named_where_the_row_match_fails(argv, subject, capsys):
    # one iteration leaves rep 1104 (row 18) unconverged and off its row:
    # the message blames the iteration cap, not the row match
    assert cli.main(argv + ["--max-iter", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{subject}solve: unconverged at iteration 1 (max_iter=1), ge=1.00" in err
    assert "row match" not in err


def test_classify_undecided_reality_names_rep_and_stage(orbit_table, monkeypatch, capsys):
    # with no evaluations to spare, "C" can be proved only on the start grid:
    # graph reps 52 and 2868 still are, and rep 3136 (row 17), the next "C"
    # class in rep order, ends undecided
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    rank = int(orbit_table.rep_rank[list(orbit_table.reps).index(3136)])
    assert cli.main(["classify"]) == 2
    err = capsys.readouterr().err
    assert f"code 3136 (rank {rank}), reality: best real overlap " in err
    assert str(gm.SolvePolicy()) in err


def test_classify_names_the_first_failing_rep_across_stages(orbit_table, monkeypatch, capsys):
    # every rep's reality is searched before any row is matched, yet with
    # both stages failing the message still names the first failing rep in
    # rep order: the first rank-3 or rank-4 rep, at its row match, and not
    # rep 3136, at its reality
    monkeypatch.setattr(cf, "TABLE_TOL", 0.0)
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    rep, rank = next((int(rep), int(rank)) for rep, rank in zip(orbit_table.reps, orbit_table.rep_rank)
                     if rank in (3, 4))
    assert rep < 3136
    assert cli.main(["classify"]) == 2
    err = capsys.readouterr().err
    assert f"code {rep} (rank {rank}), row match: no table " in err
    assert "reality" not in err


def test_classify_names_a_reality_failure_before_a_later_row_match(orbit_table, monkeypatch, capsys):
    # the order the test above checks, reversed: row 28's printed GE moved
    # off fails rep 13652's row match, but rep 3136's undecided reality
    # comes first in rep order and is the one named
    ref = cf.REFERENCE_ROWS[28]
    monkeypatch.setitem(cf.REFERENCE_ROWS, 28, dataclasses.replace(ref, ge=ref.ge + 1))
    assert cli.main(["classify"]) == 2
    assert "code 13652 (rank 3), row match: no table III row " in capsys.readouterr().err
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    assert cli.main(["classify"]) == 2
    err = capsys.readouterr().err
    assert "code 3136 (rank 3), reality: best real overlap " in err
    assert "13652" not in err and "row match" not in err


def test_classify_unmatched_exits_2(monkeypatch, capsys):
    def explode(policy=None, table=None):
        raise cf.ClassificationError("synthetic failure")

    monkeypatch.setattr(cf, "classify_all", explode)
    assert cli.main(["classify"]) == 2
    assert "classification failed" in capsys.readouterr().err


def test_query_worked_example(capsys):
    assert cli.main(["query", "1234,123"]) == 0
    out = capsys.readouterr().out
    assert "standardized: 1234" in out
    assert "size 256" in out
    assert "table I, row 1" in out
    assert "stabilizers:  ok" in out


def _query_lines(capsys, code):
    assert cli.main(["query", hc.format_edges(code)]) == 0
    return dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                if not line.startswith(" "))


def test_query_prints_the_record_classify_builds_for_each_rep(classification, capsys):
    # one record path: a rep's query shows its class record's row, GE,
    # witness pattern and reality
    for rec in classification[0] + classification[1]:
        lines = _query_lines(capsys, rec.rep)
        row = lines.get("class")
        assert row == (f"        table {rec.table}, row {rec.row}" if rec.row else None), rec.rep
        assert lines["ge"].split()[0] == f"{rec.ge:.6f}", rec.rep
        assert lines["pattern"].split() == [rec.pattern.label, "(this", "code's", "witness)"]
        assert lines["reality"].split() == [rec.pattern.reality, "(this", "code's", "witness)"]


def test_query_of_a_non_rep_prints_the_codes_own_fields(capsys):
    # code 576 lies in the orbit of rep 320: its standardized form and
    # positional entropies are its own, its orbit line is the rep's
    assert ob.orbit_of(576).rep == 320 and hc.standardize(320) != hc.standardize(576)
    lines = _query_lines(capsys, 576)
    assert lines["code"].strip() == "576"
    assert lines["standardized"].strip() == f"{hc.format_edges(hc.standardize(576))}  (code 576)"
    assert lines["be1"].strip() == "0.8113 1.0000 0.8113 1.0000"
    assert lines["orbit"].strip() == "rep 320, size 1536, rank 3, m 12"
    assert " ".join(f"{v:.4f}" for v in sv.entropy_profile(320).be1) == "1.0000 0.8113 0.8113 1.0000"


def test_query_undecided_reality_names_code_and_stage(orbit_table, monkeypatch, capsys):
    # the query side of the classify test above: code 3136 (row 17, "C")
    # cannot prove "C" without evaluations to spare
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    rank = int(orbit_table.rep_rank[list(orbit_table.reps).index(3136)])
    assert cli.main(["query", "123,124,34"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"code 3136 (rank {rank}), reality: best real overlap " in captured.err
    assert str(gm.SolvePolicy()) in captured.err
    assert "Traceback" not in captured.err


def _query_proof_stacks(monkeypatch, capsys, edges):
    """The stack shapes of every reality proof a query of ``edges`` runs,
    and the reality it prints."""
    stacks = []
    search = gm._best_real_overlap

    def counted(tensors, overlaps, best):
        stacks.append(tensors.shape)
        return search(tensors, overlaps, best)

    monkeypatch.setattr(gm, "_best_real_overlap", counted)
    assert cli.main(["query", edges]) == 0
    lines = capsys.readouterr().out.splitlines()
    return stacks, [line.split()[1] for line in lines if line.startswith("reality:")]


def test_query_runs_one_reality_search(monkeypatch, capsys):
    # a query decides its reality through the proof classify runs, called
    # through the module attribute once, on the codes its riders leave
    # short: code 16436 (row 7) is "C", so its proof runs the
    # branch-and-bound on a stack of one
    assert _query_proof_stacks(monkeypatch, capsys, "1234,12,13,23") == ([(1, 2, 2, 2, 2)], ["C"])


def test_query_decided_by_its_riders_runs_an_empty_proof(monkeypatch, capsys):
    # the riders decide code 1234 "R", so the one proof call gets no code
    assert _query_proof_stacks(monkeypatch, capsys, "1234") == ([(0, 2, 2, 2, 2)], ["R"])


def test_query_empty_edge_list(capsys):
    assert cli.main(["query", ""]) == 0
    out = capsys.readouterr().out
    assert "ge:           0.000000" in out


def test_query_parse_error_names_token(capsys):
    assert cli.main(["query", "125"]) == 1
    err = capsys.readouterr().err
    assert "bad edge list" in err and "5" in err


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_single_suites_pass(suite, capsys):
    assert cli.main(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert f"{suite}: PASS" in out


def test_verify_all_reports_each_suite(capsys):
    # every line comes from exact integer work, so the text is pinned whole
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == (
        "census: PASS (rank4 16384, rank3 15360, graphs 1024; orbit counts 11/17)\n"
        "closure: PASS (39 single-orbit classes hold 32768 codes)\n"
        "equivalence: PASS (32768 codes x 4 stabilizers fix their states)\n"
        "roundtrip: PASS (32768 codes round-tripped)\n"
        "stabilizer: PASS (32768 codes x 6 stabilizer pairs commute)\n"
        "transforms: PASS (X and Z moves consistent with the amplitude action on all codes)\n")


def test_verify_failure_exits_2(monkeypatch, capsys):
    broken = dict(cli.SUITES)
    broken["census"] = lambda: (False, "synthetic failure")
    monkeypatch.setattr(cli, "SUITES", broken)
    assert cli.main(["verify"]) == 2
    assert "census: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_suite_passes_alone_from_a_cold_orbit_table(suite, monkeypatch, capsys):
    # the undecorated enumeration: nothing another test or suite computed
    # in this process is reused
    monkeypatch.setattr(ob, "enumerate_orbits", ob.enumerate_orbits.__wrapped__)
    assert cli.main(["verify", "--suite", suite]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{suite}: PASS (")


def test_verify_evaluates_the_stabilizer_defects_once_per_run(monkeypatch, capsys):
    calls = []

    def counted(codes, real=sv.stabilizer_defects):
        calls.append(len(codes))
        return real(codes)

    monkeypatch.setattr(sv, "stabilizer_defects", counted)
    assert cli.main(["verify"]) == 0
    assert cli.main(["verify", "--suite", "census"]) == 0
    assert cli.main(["verify", "--suite", "stabilizer"]) == 0
    assert calls == [hc.N_CODES, hc.N_CODES]  # nothing outlives a run
    assert capsys.readouterr().out.count(": PASS") == 8


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_closure_reports_the_orbit_stabilizer_certificate():
    assert cli.suite_closure() == (True, "39 single-orbit classes hold 32768 codes")


def test_transforms_fails_naming_the_vertex_of_a_wrong_x_table(monkeypatch):
    right = hc.x_image_table

    def wrong(i):
        return hc.z_image_table(i) if i == 3 else right(i)

    monkeypatch.setattr(hc, "x_image_table", wrong)
    assert cli.suite_transforms() == (False, "X move on vertex 3 broke the amplitude action")


# each suite below fails on one planted fault, so none of them can pass vacuously


def test_roundtrip_fails_on_a_sign_word_off_by_one_bit(monkeypatch):
    right = hc.sign_words

    def wrong(codes):
        words = right(codes).copy()
        words[12345] ^= 1 << 7
        return words

    monkeypatch.setattr(hc, "sign_words", wrong)
    assert cli.suite_roundtrip() == (False, "round trip broke")


def test_roundtrip_fails_on_a_sign_word_with_g0000_set(monkeypatch):
    right = hc.sign_words

    def wrong(codes):
        words = right(codes).copy()
        words[12345] ^= 1
        return words

    monkeypatch.setattr(hc, "sign_words", wrong)
    assert cli.suite_roundtrip() == (False, "round trip broke")


def _two_orbits_merged(table):
    """A consistent 38-class table: orbit 1 folded into orbit 0."""
    cid = table.class_id.astype(np.int64)
    cid[cid == 1] = 0
    cid[cid > 1] -= 1
    keep = np.arange(table.n_orbits) != 1
    return ob.OrbitTable(cid.astype(np.uint16), table.reps[keep], np.bincount(cid),
                         table.rep_rank[keep])


def _one_code_moved(table):
    cid = table.class_id.copy()
    cid[12345] = (cid[12345] + 1) % table.n_orbits
    return dataclasses.replace(table, class_id=cid)


def _one_z_coset_moved(table):
    """Every code of the Z coset of 12336 (loop-free, not a rep) relabeled alike."""
    cid = table.class_id.copy()
    coset = np.flatnonzero(hc.strip_loops(hc.ALL_CODES) == 12336)
    cid[coset] = (cid[12336] + 1) % table.n_orbits
    return dataclasses.replace(table, class_id=cid)


def _one_orbit_left_out(table):
    """The last orbit keeps its id 38 but has no rep: 38 classes, all sound."""
    return dataclasses.replace(table, reps=table.reps[:-1], sizes=table.sizes[:-1],
                               rep_rank=table.rep_rank[:-1])


@pytest.mark.parametrize("damage, detail", [
    pytest.param(_two_orbits_merged, "class 0 (rep 0): its size is not 6144/|Stab|",
                 id="two-orbits-merged"),
    pytest.param(_one_code_moved, "class ids differ within a Z coset", id="one-code-moved"),
    pytest.param(_one_z_coset_moved, "class 13 (rep 1088): an image of its rep lies outside it",
                 id="one-z-coset-moved"),
    pytest.param(_one_orbit_left_out, "38 single-orbit classes hold 32512 codes",
                 id="one-orbit-left-out"),
])
def test_verify_closure_fails_on_a_planted_fault(damage, detail, orbit_table, monkeypatch,
                                                 capsys):
    damaged = damage(orbit_table)
    monkeypatch.setattr(ob, "enumerate_orbits", lambda: damaged)
    assert cli.main(["verify", "--suite", "closure"]) == 2
    assert capsys.readouterr().out == f"closure: FAIL ({detail})\n"


def test_census_fails_when_one_code_changes_rank(monkeypatch):
    right = ob.rank_census
    monkeypatch.setattr(ob, "rank_census", lambda table: {**right(table), 4: 16383, 3: 15361})
    assert cli.suite_census() == (
        False, "rank4 16383, rank3 15361, graphs 1024; orbit counts 11/17")


def test_verify_reports_an_orbit_of_mixed_rank_as_a_census_failure(orbit_table, monkeypatch,
                                                                   capsys):
    right = ob.standardized_rank

    def wrong(codes):
        rank = right(codes)
        rank[np.asarray(codes) == 1 << (hc.FULL_EDGE - 1)] = 0  # the lone 4-edge read as rank 0
        return rank

    monkeypatch.setattr(ob, "standardized_rank", wrong)
    assert cli.main(["verify", "--suite", "census"]) == 2
    assert capsys.readouterr().out == (
        "census: FAIL (orbit 28 (rep 16384) mixes standardized ranks)\n")


def _defects_with(monkeypatch, row, column, which):
    right = sv.stabilizer_defects

    def wrong(codes):
        defects = right(codes)
        defects[which][row, column] = True
        return defects

    monkeypatch.setattr(sv, "stabilizer_defects", wrong)


def test_stabilizer_fails_naming_the_pair_of_a_planted_defect(monkeypatch):
    _defects_with(monkeypatch, sv.PAIRS.index((2, 4)), 4321, which=1)
    assert cli.suite_stabilizer() == (False, "K_2 and K_4 do not commute on 1 states")
    assert cli.suite_equivalence()[0]


def test_equivalence_fails_naming_the_vertex_of_a_planted_defect(monkeypatch):
    _defects_with(monkeypatch, 2, 777, which=0)
    assert cli.suite_equivalence() == (False, "K_3 does not fix 1 states")
    assert cli.suite_stabilizer()[0]


def test_classify_unconverged_exits_2(capsys):
    # at 50 iterations the row-28 representative 13652 alone stops at the
    # cap, yet every class still matches its row
    assert cli.main(["classify", "--format", "csv", "--max-iter", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 40  # the report is still written
    assert "rep 13652 (row 28) did not converge" in captured.err
    assert "max_iter=50" in captured.err


def test_query_unconverged_exits_2(capsys):
    # five iterations leave code 13654 unconverged but close enough to row 28
    assert cli.main(["query", "123,124,134,234,12,13,14,2", "--max-iter", "5"]) == 2
    captured = capsys.readouterr()
    assert "class:        table III, row 28" in captured.out  # report still printed
    assert "converged False" in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1
    assert "code 13654 did not converge" in err[0] and "max_iter=5" in err[0]


def test_query_unmatched_exits_2(capsys, monkeypatch):
    # a GE that fits no row exits 2 before the report, not with a traceback
    def unmatched(rank, ge, be2):
        raise cf.ClassificationError(f"no table I row matches ge={ge:.6f}")

    monkeypatch.setattr(cf, "match_row", unmatched)
    assert cli.main(["query", "1234", "--max-iter", "1"]) == 2
    err = capsys.readouterr().err
    assert f"hgstate: query failed under {gm.SolvePolicy(max_iter=1)}: " in err and "max_iter=1" in err
    # the record's text names the code; the prefix does not name it again
    assert err.count("code 16384") == 1
    assert "Traceback" not in err
