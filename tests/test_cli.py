import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffdist
from ffdist import certificate, cli, construct, search, srg
from ffdist.field import field_make
from ffdist.linalg import LawViolated

from brute_force import dist2
from test_construct import corrupt_midpoint
from test_search import node_capped

SRC = Path(ffdist.__file__).parent


def run_cli(*argv):
    return cli.main(list(argv))


def construct_pair(tmp_path, p, d, extra=()):
    out = tmp_path / "cert.json"
    code = run_cli("construct", "--p", str(p), "--d", str(d), "--b", "1",
                   "--midpoints", "--out", str(out), *extra)
    return code, out, tmp_path / "cert.midpoints.json"


def test_construct_and_verify_roundtrip(tmp_path):
    code, out, mid = construct_pair(tmp_path, 5, 3,
                                    extra=("--embed", "standard"))
    assert code == 0
    assert run_cli("verify", str(out)) == 0
    assert run_cli("verify", str(mid)) == 0
    cert = json.loads(out.read_text())
    assert len(cert["points"]) == 5
    mcert = json.loads(mid.read_text())
    assert len(mcert["points"]) == 10
    assert mcert["claim"]["values"] == [3, 1]  # delta/4, delta/2
    assert mcert["meta"]["bounds"]["blokhuis"] == 10
    assert mcert["meta"]["bounds"]["attained_flag"] == "attained"
    assert mcert["meta"]["srg_report"]["ok"]


@pytest.mark.parametrize("k", [1, 2])
def test_construct_midpoints_of_triangle_claim_equilateral(tmp_path, k):
    # p = 3, d = 1: the 3 midpoints of a triangle are pairwise at
    # delta/4, T(3) has no SRG report, and verify accepts the file
    code, out, mid = construct_pair(tmp_path, 3, 1, extra=("--k", str(k)))
    assert code == 0
    mcert = json.loads(mid.read_text())
    assert mcert["claim"]["type"] == "equilateral"
    assert "srg_report" not in mcert["meta"]
    assert run_cli("verify", str(mid)) == 0


def test_construct_failing_srg_report_is_never_written(tmp_path,
                                                       monkeypatch):
    # construct.midpoints proves T(n) through the midpoint lemma, so a
    # midpoint set that fails it raises instead of being written with
    # exit 0 and the closed-form report
    corrupt_midpoint(monkeypatch, 3)
    with pytest.raises(LawViolated, match="midpoints of 5 points"):
        construct_pair(tmp_path, 5, 3)
    assert not (tmp_path / "cert.midpoints.json").exists()
    # the census oracle: T(5)'s identity with mu = 3 fails on the graph
    monkeypatch.undo()
    right = srg.expected_params

    def wrong(n):
        return dict(right(n), mu=3)

    mid = construct.midpoints(construct.modular_equilateral(
        construct.ModularParams(field_make(5), 3)))
    monkeypatch.setattr(srg, "expected_params", wrong)
    report = srg.srg_check(srg.midpoint_graph(mid.points, mid.d4), 5)
    assert not report["ok"]
    assert report["failure"].startswith("A^2 entry")


def test_construct_embed_obstruction(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli("construct", "--p", "3", "--d", "4",
                   "--embed", "standard", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_construct_usage_error(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "3", "--d", "2",
                   "--out", str(out)) == 2


def test_construct_above_table_ceiling_is_usage_error(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "3", "--k", "12", "--d", "1",
                   "--out", str(out)) == 2  # 3^12 > 2^17
    assert not out.exists()


def test_construct_embed_large_extension(tmp_path):
    # GF(5^7), q = 78125 = 1 mod 4: the embedding exists
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "5", "--k", "7", "--d", "3",
                   "--embed", "standard", "--out", str(out)) == 0
    assert run_cli("verify", str(out)) == 0


def test_construct_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("construct", "--p", "7", "--k", "2", "--d", "5",
                       "--midpoints", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.midpoints.json").read_bytes() == \
        (tmp_path / "b.midpoints.json").read_bytes()


def test_verify_detects_corruption(tmp_path):
    code, out, _ = construct_pair(tmp_path, 5, 3)
    cert = json.loads(out.read_text())
    cert["points"][2][0] = (cert["points"][2][0] + 1) % 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run_cli("verify", str(bad)) == 1


def test_verify_detects_every_single_coordinate_corruption(tmp_path):
    code, out, _ = construct_pair(tmp_path, 3, 1)
    cert = json.loads(out.read_text())
    bad = tmp_path / "bad.json"
    for i in range(len(cert["points"])):
        for j in range(len(cert["points"][i])):
            for delta in (1, 2):
                mutated = json.loads(out.read_text())
                mutated["points"][i][j] = (mutated["points"][i][j] + delta) % 3
                bad.write_text(json.dumps(mutated))
                # duplicate points are schema errors, other mutations
                # change the census
                assert run_cli("verify", str(bad)) in (1, 2)
                assert run_cli("verify", str(bad)) != 0


def test_verify_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert run_cli("verify", str(bad)) == 2

    code, out, mid = construct_pair(tmp_path, 5, 3)
    cert = json.loads(mid.read_text())
    cert["claim"]["values"] = [1, 1]  # values must be distinct
    bad.write_text(json.dumps(cert))
    assert run_cli("verify", str(bad)) == 2

    cert = json.loads(out.read_text())
    cert["field"]["p"] = 4
    bad.write_text(json.dumps(cert))
    assert run_cli("verify", str(bad)) == 2

    # PointSet's distinctness check, read as a schema error
    cert = json.loads(out.read_text())
    cert["points"][1] = cert["points"][0]
    bad.write_text(json.dumps(cert))
    with pytest.raises(certificate.SchemaError,
                       match="points must be pairwise distinct"):
        certificate.load(str(bad))
    assert run_cli("verify", str(bad)) == 2


@pytest.mark.parametrize("p,d", [(5, 3), (7, 5)])
def test_verify_accepts_either_value_order(tmp_path, p, d):
    # at (7, 5), n = 7: T(7) and its complement are both 10-regular
    code, _, mid = construct_pair(tmp_path, p, d)
    assert code == 0
    cert = json.loads(mid.read_text())
    cert["claim"]["values"].reverse()
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(cert))
    assert run_cli("verify", str(swapped)) == 0


@pytest.mark.parametrize("path,value", [
    (("meta",), "midpoints"),
    (("meta", "srg_report", "n"), "5"),
    (("meta", "srg_report", "n"), True),
    (("meta", "dimension"), "3"),
    (("meta", "dimension"), True),
    (("points", 0, 0), True),
    (("claim", "values", 1), True),
    (("meta", "srg_report", "n"), 0),
    (("meta", "srg_report"), {"ok": True}),
    (("meta", "srg_report"), None),
    (("meta", "srg_report"), [5]),
    (("field", "modulus"), [7, 7, 7]),
    (("field", "modulus"), []),
    (("version",), True),
    (("version",), 1.0),
])
def test_verify_malformed_input(tmp_path, path, value):
    _, _, mid = construct_pair(tmp_path, 5, 3)
    cert = json.loads(mid.read_text())
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run_cli("verify", str(bad)) == 2


@pytest.mark.parametrize("value,message", [
    (True, "bad coordinate True: not an integer or integer array"),
    (1.5, "bad coordinate 1.5: not an integer or integer array"),
    ([1, 2, 3], "bad coordinate: extension element must be a 2-array"),
    ([[1], [2]], "bad coordinate [[1], [2]]: not an integer or integer array"),
])
def test_load_names_bad_coordinate_of_last_extension_point(tmp_path, value,
                                                          message):
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "5", "--k", "2", "--d", "3",
                   "--out", str(out)) == 0
    cert = json.loads(out.read_text())
    cert["points"][-1][-1] = value
    out.write_text(json.dumps(cert))
    with pytest.raises(certificate.SchemaError) as excinfo:
        certificate.load(str(out))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("modulus", [["a", 0, 1], 5, [1, 0, True]])
def test_verify_malformed_modulus(tmp_path, modulus):
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "3", "--k", "2", "--d", "1",
                   "--out", str(out)) == 0
    cert = json.loads(out.read_text())
    cert["field"]["modulus"] = modulus
    out.write_text(json.dumps(cert))
    assert run_cli("verify", str(out)) == 2


def test_verify_notes_skipped_srg_recheck(tmp_path, capsys):
    _, _, mid = construct_pair(tmp_path, 5, 3)
    capsys.readouterr()
    assert run_cli("verify", str(mid)) == 0
    kept = capsys.readouterr()
    assert "skipped" not in kept.err
    cert = json.loads(mid.read_text())
    del cert["meta"]["srg_report"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(cert))
    assert run_cli("verify", str(bare)) == 0
    dropped = capsys.readouterr()
    assert dropped.out == kept.out
    assert "SRG recheck skipped" in dropped.err


def test_verify_reports_each_check(tmp_path):
    from ffdist import certificate
    _, _, mid = construct_pair(tmp_path, 5, 3)
    cert = json.loads(mid.read_text())
    report = certificate.verify(str(mid))
    full = {"classification": "passed", "dimension": "passed",
            "bounds": "passed", "search": "skipped", "exhausted": "skipped",
            "srg": "passed"}
    assert report["checks"] == full
    for drop in (("srg_report",), ("bounds",), ("dimension",),
                 ("bounds", "srg_report", "dimension")):
        bare = json.loads(json.dumps(cert))
        for key in drop:
            del bare["meta"][key]
        path = tmp_path / ("-".join(drop) + ".json")
        path.write_text(json.dumps(bare))
        report = certificate.verify(str(path))
        skipped = [{"srg_report": "srg"}.get(key, key) for key in drop]
        assert report["checks"] == dict(full, **dict.fromkeys(skipped,
                                                             "skipped"))
    # a search certificate's stored results are checked, but whether the
    # search was exhausted cannot be re-derived from the points
    out = tmp_path / "s.json"
    assert run_cli("search", "--p", "5", "--d", "2", "--mode",
                   "two_distance", "--canonical", "--out", str(out)) == 0
    report = certificate.verify(str(out))
    assert report["checks"] == dict(full, search="passed", srg="skipped")


# (file, edits, the error verify prints): each edit is one piece of
# bookkeeping that contradicts the points or that they cannot confirm
# (a key that is neither derived nor run record, or a search mode that
# cannot find them); "mid" is the construct
# --p 5 --d 3 --midpoints file, "eq" its equilateral source (5 points
# with attained_flag taken against equilateral_upper = 5) and "search"
# search --p 5 --d 2 --mode two_distance --canonical (5 points)
BOOKKEEPING_EDITS = [
    ("mid", {("meta", "dimension"): 50, ("meta", "bounds", "blokhuis"): 1326},
     "meta.dimension is 50, the points give 3"),
    ("mid", {("meta", "bounds", "blokhuis"): 1326},
     "meta.bounds.blokhuis is 1326, the points give 10"),
    ("mid", {("meta", "bounds", "attained_flag"): "exceeded"},
     'meta.bounds.attained_flag is "exceeded", the points give "attained"'),
    ("mid", {("meta", "bounds", "equilateral_upper"): 99},
     "meta.bounds.equilateral_upper is 99, the points give 5"),
    ("mid", {("meta", "bounds", "blokhuis"): 10.0},
     "meta.bounds.blokhuis is 10.0, the points give 10"),
    ("eq", {("meta", "bounds", "attained_flag"): "unreached"},
     'meta.bounds.attained_flag is "unreached", the points give "attained"'),
    ("search", {("meta", "search", "max_size"): 99},
     "meta.search.max_size is 99, the points give 5"),
    ("search", {("meta", "search", "bound_status"): "exceeded"},
     'meta.search.bound_status is "exceeded", the points give "unreached"'),
    ("search", {("meta", "search", "both_values"): False},
     "meta.search.both_values is false, the points give true"),
    ("search", {("meta", "search", "max_size"): True},
     "meta.search.max_size is true, the points give 5"),
    ("mid", {("meta", "bounds", "rank"): 3}, "unknown key meta.bounds.rank"),
    ("mid", {("meta", "bounds", "nodes"): 1}, "unknown key meta.bounds.nodes"),
    ("search", {("meta", "search", "max_sizes"): 99},
     "unknown key meta.search.max_sizes"),
    ("search", {("meta", "search", "mode"): "equilateral"},
     'meta.search.mode is "equilateral", the points give TwoDistance(1, 4)'),
    ("search", {("meta", "search", "mode"): "clique"},
     'meta.search.mode is "clique", the points give TwoDistance(1, 4)'),
]


@pytest.mark.parametrize("which,edits,message", BOOKKEEPING_EDITS)
def test_verify_rejects_bookkeeping_the_points_contradict(
        tmp_path, capsys, which, edits, message):
    _, eq, mid = construct_pair(tmp_path, 5, 3)
    path = {"eq": eq, "mid": mid, "search": tmp_path / "s.json"}[which]
    assert run_cli("search", "--p", "5", "--d", "2", "--mode",
                   "two_distance", "--canonical", "--out",
                   str(tmp_path / "s.json")) == 0
    assert run_cli("verify", str(path)) == 0
    cert = json.loads(path.read_text())
    for keys, value in edits.items():
        target = cert
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli("verify", str(bad)) == 1
    assert capsys.readouterr().err == "verification failed: %s\n" % message


def test_no_assert_in_package():
    # mathematical claims must survive python -O
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert not asserts, "%s: assert at lines %s" % (path.name, asserts)


def test_optimized_run_writes_same_bytes(tmp_path):
    # prime and extension field, so every writer and decoder path runs
    ref, opt = tmp_path / "ref", tmp_path / "opt"
    ref.mkdir()
    opt.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    argv = [sys.executable, "-O", "-m", "ffdist.cli"]
    for field_args, tag in ((("--p", "5"), "k1_"),
                            (("--p", "5", "--k", "2"), "k2_")):
        for extra, name in ((("--midpoints",), "cert.json"),
                            (("--embed", "standard"), "embed.json")):
            args = ["construct", *field_args, "--d", "3", "--b", "1", *extra,
                    "--out"]
            assert run_cli(*args, str(ref / (tag + name))) == 0
            subprocess.run(argv + args + [tag + name], cwd=opt, env=env,
                           check=True, capture_output=True)
    names = sorted(path.name for path in ref.iterdir())
    assert len(names) == 6
    assert names == sorted(path.name for path in opt.iterdir())
    for name in names:
        subprocess.run(argv + ["verify", name], cwd=opt, env=env, check=True,
                       capture_output=True)
        assert (opt / name).read_bytes() == (ref / name).read_bytes()


def test_search_subproblems_stay_out_of_output(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert run_cli("search", "--p", "5", "--d", "2", "--mode",
                   "two_distance", "--out", str(out)) == 0
    assert capsys.readouterr().out == (
        "max two_distance size in GF(5^1)^2: 5 (exhausted)\n")
    assert sorted(json.loads(out.read_text())["meta"]["search"]) == [
        "both_values", "bound_status", "exhausted", "max_size", "mode",
        "nodes", "seconds"]


def test_verify_missing_file():
    assert run_cli("verify", "/nonexistent/cert.json") == 2


def test_search_command(tmp_path):
    out = tmp_path / "search.json"
    code = run_cli("search", "--p", "3", "--d", "2",
                   "--mode", "two_distance", "--canonical",
                   "--out", str(out))
    assert code == 0  # exhausted
    cert = json.loads(out.read_text())
    assert cert["meta"]["search"]["max_size"] == 9
    assert cert["meta"]["search"]["bound_status"] == "exceeded"
    assert cert["meta"]["search"]["exhausted"] is True
    assert run_cli("verify", str(out)) == 0


def test_search_canonical_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("search", "--p", "5", "--d", "1",
                       "--mode", "equilateral", "--canonical",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_budget_exit_code(tmp_path):
    # zero time budget: partial result, exit 3
    code = run_cli("search", "--p", "7", "--d", "3",
                   "--mode", "two_distance", "--budget-secs", "0")
    assert code == 3


@pytest.mark.parametrize("budget", ["nan", "-1", "-0.5"])
def test_search_rejects_nan_and_negative_budget(capsys, budget):
    # NaN compares false with every deadline, so it would never stop
    assert run_cli("search", "--p", "3", "--d", "2", "--mode",
                   "two_distance", "--budget-secs", budget) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("argv,ceiling", [
    (("--p", "3", "--d", "9"), "norm-table ceiling 531441"),
    (("--p", "17", "--d", "4"), "point ceiling 65536"),
    (("--p", "17", "--d", "4", "--canonical"), "point ceiling 65536"),
])
def test_search_above_ceiling_is_usage_error(capsys, argv, ceiling):
    assert run_cli("search", *argv, "--mode", "equilateral") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and ceiling in captured.err
    assert not captured.out


@pytest.mark.parametrize("extra,ceiling", [
    ((), "point ceiling 65536"),
    (("--canonical",), "point ceiling 65536"),
])
def test_search_huge_dimension_refused_fast(capsys, extra, ceiling):
    # 3^(10^7) alone takes seconds to compute
    start = time.perf_counter()
    assert run_cli("search", "--p", "3", "--d", str(10**7), "--mode",
                   "equilateral", *extra) == 2
    assert time.perf_counter() - start < 0.1
    assert ceiling in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("search", "--p", "3", "--d", "0", "--mode", "equilateral"),
    ("search", "--p", "3", "--d", "-1", "--mode", "two_distance"),
    ("construct", "--p", "3", "--d", "-2", "--out", "x.json"),
    ("construct", "--p", "3", "--d", "0", "--out", "x.json"),
    ("tables", "--d", "0"),
    ("tables", "--d", "-3"),
    ("tables", "--p", "3", "--max-d", "0"),
    ("tables", "--p", "3", "--max-d", "-5"),
])
def test_dimension_below_one_is_usage_error(tmp_path, monkeypatch, capsys,
                                            argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "dimension" in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


def test_search_witness_of_other_class_is_law_violation(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(cli.geometry, "classify",
                        lambda s: cli.geometry.Other(3, False))
    with pytest.raises(LawViolated):
        run_cli("search", "--p", "3", "--d", "2", "--mode", "two_distance",
                "--out", str(tmp_path / "s.json"))
    assert not (tmp_path / "s.json").exists()


def test_search_budget_covers_value_sets():
    # about 5*10^7 value pairs in GF(9973): the budget must stop their
    # enumeration; unbounded, it alone takes minutes
    start = time.monotonic()
    code = run_cli("search", "--p", "9973", "--d", "1",
                   "--mode", "two_distance", "--budget-secs", "0.5")
    assert code == 3
    assert time.monotonic() - start < 3


def test_search_budget_hit_keeps_size_two_witness(capsys):
    # the witness {0, e} is recorded before any value set is enumerated
    assert run_cli("search", "--p", "9973", "--d", "1",
                   "--mode", "two_distance", "--budget-secs", "0.5") == 3
    assert capsys.readouterr().out == (
        "max two_distance size in GF(9973^1)^1: 2 (budget hit)\n")


def test_search_canonical_budget_hit_keeps_search_pass_witness(
        tmp_path, monkeypatch, capsys):
    # a node limit just above the search pass's own node count: only the
    # canonical pass hits it, so the run prints the proven size as a
    # budget hit, exits 3 and writes the search pass's witness
    f = field_make(7)
    limit = search.max_two_distance(search.SearchProblem(
        f, 3, "two_distance", canonical=True)).stats["nodes"] + 1
    monkeypatch.setattr(search, "_Budget", node_capped(limit))
    hit = search.max_two_distance(search.SearchProblem(
        f, 3, "two_distance", canonical=True))
    out = tmp_path / "s.json"
    assert run_cli("search", "--p", "7", "--d", "3", "--mode",
                   "two_distance", "--canonical", "--out", str(out)) == 3
    assert capsys.readouterr().out == (
        "max two_distance size in GF(7^1)^3: 7 (budget hit)\n")
    cert = json.loads(out.read_text())
    assert cert["meta"]["search"]["max_size"] == 7
    assert cert["meta"]["search"]["exhausted"] is False
    assert cert["points"] == [list(x) for x in hit.witness.points]
    assert run_cli("verify", str(out)) == 0


@pytest.mark.parametrize("argv", [
    ("construct", "--p", "5", "--k", "100000000", "--d", "3",
     "--out", "x.json"),
    ("search", "--p", "5", "--k", "100000000", "--d", "1",
     "--mode", "equilateral"),
])
def test_huge_extension_degree_refused_fast(tmp_path, monkeypatch, capsys,
                                            argv):
    # 5^(10^8) alone takes seconds to compute
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run_cli(*argv) == 2
    assert time.perf_counter() - start < 0.1
    assert "field too large" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", [{"p": 5, "k": 10**8},
                                   {"p": 2**61 - 1, "k": 1}])
def test_verify_huge_field_refused_fast(tmp_path, capsys, field):
    # trial division of 2^61 - 1 alone takes minutes
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "5", "--d", "3",
                   "--out", str(out)) == 0
    cert = json.loads(out.read_text())
    cert["field"].update(field)
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("verify", str(out)) == 2
    assert time.perf_counter() - start < 0.1
    assert "field too large" in capsys.readouterr().err


def test_verify_prints_two_distance_values_in_numeric_order(tmp_path,
                                                            capsys):
    # delta/4 = 10 and delta/2 = 9 here; ordered as strings they would
    # print as TwoDistance(10, 9)
    out = tmp_path / "cert.json"
    assert run_cli("construct", "--p", "11", "--d", "9", "--b", "3",
                   "--midpoints", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("verify", str(tmp_path / "cert.midpoints.json")) == 0
    assert capsys.readouterr().out == (
        "verified: TwoDistance(9, 10), 55 points\n")


# sha256 of search --canonical --out certificates, as written before the
# graphs were built from the Cayley norm table
CANONICAL_SEARCH_SHA256 = {
    ("3", "1", "3", "equilateral"):
        "c6c4b5a3962ab9dc172d41081deed4f54afe22ca04755c8dc17121d55a200ff6",
    ("3", "1", "3", "two_distance"):
        "7138bce975768e6351e80b7ed071c45d603762630e7b276138e07125fd8560d6",
    ("5", "1", "2", "equilateral"):
        "592f420e6282357efd05d3f48ff7ad309233a0603d571f8dfd8673cc893370c7",
    ("5", "1", "2", "two_distance"):
        "d0dfea0162131893e8da6e9840468909164a9c1ae016fce01216887c3c951f28",
    ("3", "2", "2", "equilateral"):
        "b96e8a596ff82ccab14b04f5efb7def930f32c749133e3569d05221dca4c6f08",
    ("3", "2", "2", "two_distance"):
        "74654738f462ab862306cbd6bffaeec462ed0e75b0ac7e623f42eb3cee7bacb5",
    ("5", "2", "2", "equilateral"):
        "a0c791927fb108e093eb6d1cc189bbf2dde1bee00534a421f3f328c0161323ec",
    ("5", "2", "2", "two_distance"):
        "3c55548bd5e8f5ba6579a1130e516efe3352b321d973690b1dc75ad793135792",
    ("3", "3", "1", "equilateral"):
        "3bb6070d45ca187c84cfc88a2a32976e3c73949babcbadf07f2556a21eece7ff",
    ("3", "3", "1", "two_distance"):
        "d6d9b3043c85b850a07b792de2e58a27e3d4ce6502440f4b607711a2378e6533",
    # written while the canonical pass walked every square orbit (9 s and
    # 42 s then)
    ("7", "1", "4", "two_distance"):
        "7b0838ca0d130b68a387c8e0e80de7fd19ffd875a2e3c237fb3990414c4ddf7e",
    ("3", "2", "4", "two_distance"):
        "21937be3bf91d5bc17003659f748e4f085e17cdecc349022864215057a04e53c",
    # above 10^4 points; the equilateral witnesses also match a walk of
    # every orbit (tests/test_search.py)
    ("7", "1", "5", "equilateral"):
        "e0e05a8abe1b9a4594122fba2151a660dba0e0924673166921e4de89bd973199",
    ("7", "1", "5", "two_distance"):
        "fbb5fde714a2a7ee654446b2d822c0d976ebbcb1a27e51c349ed1b19aeae5258",
    ("5", "2", "3", "equilateral"):
        "71ed1716a0452bf93e86e8e9dceb1e991e28946414f7703ce548e8d9e7683a00",
    ("5", "2", "3", "two_distance"):
        "3ca2122ef29541d639c26c7033ade6f7165f8d91879c907047be7239acb29d70",
    # the 9^6-entry norm table, at the ceiling; as written while the table
    # also held ray ids
    ("5", "1", "6", "equilateral"):
        "ce9ecd0e8db362bbf7704a68f5bc9e27eb0f63ec5b74647a0c41b6ab0163eb9e",
    # a node-bound canonical walk: 88,798 nodes over 174 rows
    ("3", "1", "6", "two_distance"):
        "3caa1f08a12ec1de52cca2f013e4e9b557ccd471c8f15de96adf88b7fb6b1028",
}


@pytest.mark.parametrize("p,k,d,mode", sorted(CANONICAL_SEARCH_SHA256))
def test_search_canonical_bytes_pinned(tmp_path, p, k, d, mode):
    out = tmp_path / "search.json"
    assert run_cli("search", "--p", p, "--k", k, "--d", d, "--mode", mode,
                   "--canonical", "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CANONICAL_SEARCH_SHA256[(p, k, d, mode)]


# sha256 of construct certificates over extension fields, as written
# while extension elements were coefficient tuples, keyed by (p, k, d, b):
# (equilateral, midpoints, --embed standard), None where the embedding
# is obstructed (q = 27 is 3 mod 4).  The scales b >= p are elements
# outside the prime subfield.
CONSTRUCT_EXTENSION_SHA256 = {
    (3, 2, 4, 1): (
        "9fa7115dd29964374a12ccef448476e50972e6a3d8d88e7dcffcbc1826f1edbf",
        "6a0f12cdf4f8fef4b2e34c2abb46caed37a69c0b5c3684b2a092883eaffd6bd2",
        "ae5d2feb5b2870637a895434c5a43095ee5b497ccf60c6f00ce5b703977e67eb"),
    (3, 2, 4, 2): (
        "da0e110ff98f12782f9aa0e1eef5ab4a54973e490af6a188de8655cf577b6f64",
        "deb5b76243ca73d1e52c60f3ed21da29087f99281433bf930721d48f8569fb04",
        "6fbed2464f7a515e3720c484cc38b05bb9a10e369a3fd9568ebbd2295d5ab4bc"),
    (3, 2, 4, 4): (
        "2fe52dae58ef9b58009e7810f2988b088c406403e5cb48357a806218ba770926",
        "dfa1745aba7dc3c47c7ef3d3cd8bc113ced1c36dda9d639d0e461b2569c2f8f8",
        "6062eb01d1434435be8eb22734c4275f93d7ecb5ca3d8b46a56629b2e29e9f7a"),
    (3, 2, 4, 5): (
        "c5594327e9ac1d58cc9f16fa64e3032beaba113e2ef339601d691d8f4e389506",
        "29fc98b5e4692ee96ac0a4683da1a02c5be8d9946c6e9eb6aad8da238ae797ca",
        "923f864d3d002127d1b9860f3405e4e273fde11c37f1b54dcfea3aba3f6d8d76"),
    (5, 2, 3, 1): (
        "612e2c4f58e547ff04d0338ff342a6071f81dc028506a4441b75f092b3ab46e9",
        "3a64ad0e1420393d2db2e1d0c507ed51b6af93b089056ceb7affacc5d2f3bb35",
        "60305f84de09e0a80c00e718ad05fdc233a76f74e39abdb0c01b310d70afbe08"),
    (5, 2, 3, 2): (
        "035e09567ef60c7467c999dba8d67887441e863940c53201eab1661f9c9afa94",
        "27fad78d57c30370617e862162accff0911f2ad667cc5d6ad81e8a1b553fec2a",
        "d520555aee5e0f07f9dcd6709a770fb2a81c7d147411cb28b62b5ae3413cabca"),
    (5, 2, 3, 5): (
        "53a5001959a7d680750ab780b96816ec9e4a47e17840280af47a4d233d2c6df5",
        "21301f284f377789195f60425e6b1fc72bed471930690ed31979b3c49bfcf57a",
        "f6d7d1e36b20e696a640cbfa793cdb28743256c52cac6359c7ac6a2981c46173"),
    (5, 2, 3, 7): (
        "e150949f8fb2844dcbe5a1dd0b890108344c2d51e10651518a87811a7d99ce6a",
        "4e45d14de5aa8dfd2fc7ce7f56962a2662c2a7cd8f18046c3525459beecb8d3a",
        "a7d589573d3f8c227a76beac9368e692880bf99b52b6a605a36542e9992e3c28"),
    (3, 3, 4, 1): (
        "9c8f0c0aab33485c2168770548a2799287d15b89b77b0893878c71e1b48abd4e",
        "30a2432d574596a1da7bb5e6266797334c27dad5c6d7a7f9a63eb429da85e282",
        None),
    (3, 3, 4, 3): (
        "f00daee91590952b4e2ded0946908907ce8f3bf201e3513bbe3caa603f8fe7dd",
        "d189702d6b7f1825131bb10aab9d35560139e86a37a2acdfbf2ed66c908a18dd",
        None),
    (3, 3, 4, 10): (
        "fbaa3feec67c6028ea6bc612d1c07ac7685a7458162163fcc925a34f277eec82",
        "5b19e3e7235d955b82f68876fe345f23c62fbe209c28039b09145178fb1677ef",
        None),
    (3, 3, 4, 26): (
        "b3ae252a7b47acabfa018cfe4d56285621a915751daa6d90d67a342f58bcfde2",
        "1a1773f4d70b0c9235c7f91ecfcf2605360b28b5564f9a5a0c80166a974896c9",
        None),
    (7, 2, 5, 1): (
        "40fc696334f77ab337853bcbed43ba0f6c4114ee146cafcfcfb4366a0a50354b",
        "81e64ec2fb1ef17d602b7fa31acd4621abdc665b7a03ea17755b534f69f5e3d0",
        "cb10490f433f98d21ecdf736ad6e0cf67c58b5717294bc21243d3d2ca22e8735"),
    (7, 2, 5, 7): (
        "52fdbdf76c7f19bf9ef859dc612d01675cd9c7f56e29d735c66c0a55ffec0e01",
        "34af7c3fef740f97c7d8784caa9f0f745895b50bc6c1b7d3a7f986d7b5b8d5c6",
        "6bc332bab32c125b15d1ef9908b8c82a460a5149fc0deb7061d9221d6b11269f"),
    (7, 2, 5, 8): (
        "f9bf1336ced248706e803b2a43a087552db599420682e7dc16026c11d0a59a17",
        "7a8a78b0879cabd1a63ed797d3e3a46d7b1983cb3556ff737083b3aaf6f4a4c6",
        "6e6a9d8cd50bbe21811663ac87657368e847ce9abb80f72af0df08e8655eeb7e"),
    (7, 2, 5, 30): (
        "c1065c174ce84bdaa367d57a3f82dbfbdb64760690c385cc31a30d1053ac978e",
        "d92b7ba2bb1b47516ac74ff676be5e0ee1795ac383b50d3fb3b491018e7282ed",
        "ffd68b75b6910edd1ee1b6cb10142aa72cd328ce3a163a142c44cab55948eb4d"),
}

# sha256 of construct --embed standard certificates over prime fields,
# keyed by (p, d), as written before the O(n^3) diagonalization
CONSTRUCT_PRIME_EMBED_SHA256 = {
    (5, 28):
        "95ca85e9943354ef69573d6d793de7917f7e61c20cee9853638ad3ab3f991173",
    (13, 24):
        "eb0dd7fe6de7ecd9959b6c99813cb2ce96cb3109e2ae7adb7ff83d36c7e1eea9",
    (5, 98):
        "690f62728ca7eedb0697bbaefa7e45ebfdd020973e300847d66502124b81f8df",
}

# sha256 of larger construct certificates, keyed by the construct
# arguments (all with --b 1 --out c.json), as written while
# certificate.dumps was json.dumps(indent=2, sort_keys=True) itself
CONSTRUCT_LARGE_SHA256 = {
    ("--p", "5", "--k", "2", "--d", "98", "--embed", "standard"): {
        "c.json":
        "44043350045f5c5d238a6fd448a81fb35edc4efc7c713b7286d3de1a2c2706aa"},
    ("--p", "3", "--k", "2", "--d", "97", "--embed", "standard"): {
        "c.json":
        "6924d51b6325ae4c8f7b01af047050c57b731877c0632b7a65d61cfaa8af8465"},
    ("--p", "7", "--d", "47", "--midpoints"): {
        "c.json":
        "8c6177e07660c0b20041c5e0e102bf1b13cbd44a28f15eff36a00aa0a04393a1",
        "c.midpoints.json":
        "2ac3eb5c60e674c64c1f7cf9d44f5a61b5cb94069ed3724d3d2f41e946053477"},
}

GF27_EMBED_STDERR = (
    "embedding failed: form is not isometric to the standard form; "
    "leftover square class witness [2, 0, 0]\n")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("p,k,d,b", sorted(CONSTRUCT_EXTENSION_SHA256))
def test_construct_extension_bytes_pinned(tmp_path, capsys, p, k, d, b):
    eq_sha, mid_sha, embed_sha = CONSTRUCT_EXTENSION_SHA256[(p, k, d, b)]
    args = ("construct", "--p", str(p), "--k", str(k), "--d", str(d),
            "--b", str(b))
    out = tmp_path / "c.json"
    assert run_cli(*args, "--midpoints", "--out", str(out)) == 0
    assert sha256(out) == eq_sha
    assert sha256(tmp_path / "c.midpoints.json") == mid_sha
    emb = tmp_path / "e.json"
    capsys.readouterr()
    code = run_cli(*args, "--embed", "standard", "--out", str(emb))
    if embed_sha is None:
        assert code == 1
        assert not emb.exists()
        assert capsys.readouterr().err == GF27_EMBED_STDERR
    else:
        assert code == 0
        assert sha256(emb) == embed_sha


@pytest.mark.parametrize("p,d", sorted(CONSTRUCT_PRIME_EMBED_SHA256))
def test_construct_prime_embed_bytes_pinned(tmp_path, p, d):
    out = tmp_path / "e.json"
    assert run_cli("construct", "--p", str(p), "--d", str(d),
                   "--embed", "standard", "--out", str(out)) == 0
    assert sha256(out) == CONSTRUCT_PRIME_EMBED_SHA256[(p, d)]


@pytest.mark.parametrize("args", sorted(CONSTRUCT_LARGE_SHA256))
def test_construct_large_bytes_pinned(tmp_path, args):
    assert run_cli("construct", *args, "--b", "1",
                   "--out", str(tmp_path / "c.json")) == 0
    assert {path.name: sha256(path) for path in tmp_path.iterdir()} == (
        CONSTRUCT_LARGE_SHA256[args])


def test_tables(capsys):
    assert run_cli("tables", "--p", "3", "--max-d", "10") == 0
    text = capsys.readouterr().out
    assert "1, 4, 7, 10" in text
    assert "collapse=True" in text
    assert run_cli("tables", "--d", "6") == 0
    assert "power of two" in capsys.readouterr().out
    assert run_cli("tables", "--d", "13") == 0
    assert "3, 5" in capsys.readouterr().out


def test_tables_names_the_extension_field(capsys):
    assert run_cli("tables", "--p", "3", "--k", "2", "--max-d", "2") == 0
    assert "rank of I+J (size n-1) over GF(3^2):\n" in capsys.readouterr().out
    assert run_cli("tables", "--p", "3", "--max-d", "2") == 0
    assert "rank of I+J (size n-1) over GF(3):\n" in capsys.readouterr().out


def test_tables_usage():
    assert run_cli("tables") == 2


def test_search_out_below_two_points_notes_no_certificate(tmp_path, capsys):
    # 3 is not a square mod 7, so no pair of F_7 lies at distance 3
    out = tmp_path / "s.json"
    assert run_cli("search", "--p", "7", "--d", "1", "--mode", "equilateral",
                   "--fix-values", "3", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "max equilateral size in GF(7^1)^1: 1 (exhausted)\n")
    assert captured.err == "note: no certificate written (max size < 2)\n"
    assert not out.exists()


def test_bad_flags():
    assert run_cli("construct", "--p", "5") == 2  # missing required flags
    # a fixed distance value of 0 (here 5 = 0 mod 5) is a usage error
    assert run_cli("search", "--p", "5", "--d", "2", "--mode",
                   "two_distance", "--fix-values", "5,2") == 2


@pytest.mark.parametrize("mode,values", [
    ("equilateral", "1,2"),  # an equilateral set has one value
    ("two_distance", "1,2,3"),
    ("two_distance", "1,6"),  # 6 = 1 mod 5: the pair (1, 1)
    ("two_distance", ""),  # no list, not an unrestricted search
])
def test_fix_values_must_fit_the_mode(tmp_path, capsys, mode, values):
    out = tmp_path / "s.json"
    assert run_cli("search", "--p", "5", "--d", "2", "--mode", mode,
                   "--fix-values", values, "--out", str(out)) == 2
    captured = capsys.readouterr()
    want = ("fixed" if values
            else "--fix-values must be comma-separated integers")
    assert captured.err.startswith("error: ") and want in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("argv", [
    ("construct", "--p", "5", "--d", "3"),
    ("search", "--p", "3", "--d", "2", "--mode", "two_distance"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write %s: No such file or directory\n" % out


def test_unwritable_midpoints_out_is_usage_error(tmp_path, capsys):
    (tmp_path / "c.midpoints.json").mkdir()
    out = tmp_path / "c.json"
    assert run_cli("construct", "--p", "5", "--d", "3", "--midpoints",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "wrote %s (5 equilateral points)\n" % out
    assert captured.err.startswith(
        "error: cannot write %s: " % (tmp_path / "c.midpoints.json"))
    assert captured.err.count("\n") == 1
    assert run_cli("verify", str(out)) == 0


def test_tables_max_d_above_ceiling_refused_fast(capsys):
    # the rank table costs about max-d^4; 10^9 would also build a
    # 10^9 x 10^9 matrix before any work
    for max_d in (cli.TABLES_MAX_D + 1, 10**9):
        start = time.perf_counter()
        assert run_cli("tables", "--p", "3", "--max-d", str(max_d)) == 2
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --max-d: at most %d"
                                       % cli.TABLES_MAX_D)
        assert not captured.out


def test_tables_max_d_at_ceiling_is_accepted(monkeypatch, capsys):
    monkeypatch.setattr(cli, "TABLES_MAX_D", 6)
    assert run_cli("tables", "--p", "3", "--max-d", "6") == 0
    assert "up to d=6" in capsys.readouterr().out


# argv whose handling by cli.main must not depend on which parser reads
# it: help, errors of every kind, and valid runs of every command
PARSE_CASES = [
    (), ("-h",), ("--help",), ("bogus",), ("-h", "verify"), ("--version",),
    ("construct", "-h"), ("verify", "-h"), ("search", "-h"),
    ("tables", "-h"), ("verify", "--he"), ("verify", "-h", "x"),
    ("construct", "--help", "--p", "x"),
    ("construct",), ("verify",), ("search",), ("tables",),
    ("construct", "--p", "5"),
    ("construct", "--p", "5", "--d", "3", "--out", "a.json", "--p", "7"),
    ("construct", "--p", "5", "--d", "3", "--out", "a.json", "--bogus"),
    ("construct", "--p", "5", "--d", "3", "--out", "a.json", "extra"),
    ("verify", "a.json", "b.json"), ("verify", "--path", "x"),
    ("verify", "-x"),
    ("construct", "--p", "x", "--d", "3", "--out", "a.json"),
    ("construct", "--p", "5", "--d", "3", "--out", "a.json",
     "--embed", "weird"),
    ("construct", "--p", "5", "--d", "3", "--out"),
    ("construct", "--p", "5", "--d", "3", "--out", "--midpoints"),
    ("construct", "--mid", "--p", "5", "--d", "3", "--out", "b.json"),
    ("construct", "--p=5", "--d=3", "--out=c.json", "--embed=standard"),
    ("construct", "--p", "5", "--d", "3", "--midpoints", "--out", "d.json"),
    ("search", "--p", "3", "--d", "2", "--mode", "clique"),
    ("search", "--p", "3", "--d", "2", "--mode", "two_distance",
     "--budget-secs", "abc"),
    ("search", "--p", "3", "--d", "2", "--mode", "equilateral"),
    ("search", "--p", "3", "--d", "-1", "--mode", "equilateral"),
    ("search", "--p", "3", "--d", "2", "--mode", "two_distance",
     "--fix", "1", "--canonical", "--out", "s.json"),
    ("tables", "--max-d", "1.5"), ("tables", "--d", "6"),
    ("tables", "--p", "3", "--max-d", "10"),
    ("tables", "--p", "3", "--p", "5", "--max-d", "4"),
    ("verify", "missing.json"), ("verify", "--", "-weird.json"),
    ("verify", "-"), ("verify", "cert.midpoints.json"),
]


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


def parse_outcome(parse, argv):
    try:
        return parse(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_command_parser_matches_full_parser(tmp_path, monkeypatch, capsys,
                                            argv):
    monkeypatch.chdir(tmp_path)
    construct_pair(tmp_path, 5, 3)
    capsys.readouterr()
    command_parse = cli.parse
    runs = []
    for parse in (command_parse, full_parse):
        monkeypatch.setattr(cli, "parse", parse)
        runs.append((cli.main(list(argv)), capsys.readouterr()))
    assert runs[0] == runs[1]
    # a Namespace for a valid argv, else the same exit status
    assert (parse_outcome(command_parse, argv)
            == parse_outcome(full_parse, argv))


def _outcome(parse, argv):
    """parse_outcome, a Namespace given as the reprs of its attributes so
    that a nan value compares equal."""
    out = parse_outcome(parse, argv)
    if isinstance(out, argparse.Namespace):
        return {key: repr(value) for key, value in vars(out).items()}
    return out


def test_read_matches_full_parser_property(capsys):
    # argv drawn from the COMMANDS table: each argument kept or dropped,
    # with a value that fits it or one of any shape, exact, in the = form
    # or abbreviated, then stray tokens (repeats among them) put in
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    flags = sorted({flag for _, _, arguments in cli.COMMANDS.values()
                    for flag, _ in arguments})
    odd = st.one_of(st.sampled_from(flags), st.sampled_from([
        "", "--", "-", "-h", "--help", "-1", "nan", "-inf", "1.5", "0x10",
        "1_0", " 7", "1,2", "equilateral", "standard", "a b.json", "x=y",
        "verify"]), st.integers().map(str), st.floats().map(str))
    fits = {int: st.integers(-2, 30).map(str),
            float: st.floats(allow_infinity=False).map(str),
            str: st.sampled_from(["a.json", "1,2", "two_distance"])}

    @st.composite
    def argvs(draw):
        name = draw(st.sampled_from(list(cli.COMMANDS) + ["-h", "bogus"]))
        groups = []
        for flag, kw in cli.COMMANDS.get(name, (None, None, []))[2]:
            if draw(st.integers(0, 7)) == 0:
                continue
            value = draw(odd if draw(st.integers(0, 7)) == 0 else (
                st.sampled_from(kw["choices"]) if "choices" in kw
                else fits[kw.get("type", str)]))
            form = draw(st.sampled_from(["exact"] * 5 + ["=", "abbreviated"]))
            if flag[0] != "-":
                groups.append([value])
            elif kw.get("action"):
                groups.append([flag + "=" if form == "=" else flag])
            elif form == "=":
                groups.append([flag + "=" + value])
            elif form == "abbreviated":
                groups.append([flag[:draw(st.integers(2, len(flag)))], value])
            else:
                groups.append([flag, value])
        for _ in range(draw(st.integers(0, 3)) // 2):
            stray = [draw(odd)] if draw(st.booleans()) or not groups \
                else draw(st.sampled_from(groups))
            groups.insert(draw(st.integers(0, len(groups))), stray)
        return [name] + [arg for group in draw(st.permutations(groups))
                         for arg in group]

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(argvs())
    def check(argv):
        read = _outcome(cli.parse, argv)
        printed = capsys.readouterr()
        assert read == _outcome(full_parse, argv)
        assert printed == capsys.readouterr()
    check()


VALID_ARGV = [
    ("construct", "--p", "5", "--d", "3", "--midpoints", "--out", "c.json"),
    ("construct", "--p=5", "--k=2", "--d=3", "--b", "2",
     "--embed=standard", "--out=e.json"),
    ("verify", "c.midpoints.json"),
    ("search", "--mode", "two_distance", "--p", "3", "--d", "2",
     "--fix-values", "1,2", "--budget-secs", "30", "--canonical",
     "--out", "s.json"),
    ("search", "--p=5", "--d=2", "--mode=two_distance"),
    ("tables", "--d", "6"),
    ("tables", "--p", "3", "--k", "1", "--max-d", "4"),
]


def test_valid_argv_builds_no_parser(tmp_path, monkeypatch):
    # a well-formed argv of each command is read from its COMMANDS entry
    # alone: no argparse.ArgumentParser is constructed, and the entry's
    # command is the one that runs
    monkeypatch.chdir(tmp_path)
    want = [_outcome(full_parse, argv) for argv in VALID_ARGV]

    def refuse(*args, **kwargs):
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [_outcome(cli.parse, argv) for argv in VALID_ARGV] == want
    ran = []
    for name, (help_text, func, arguments) in list(cli.COMMANDS.items()):
        def logged(args, func=func):
            ran.append(args.command)
            return func(args)
        monkeypatch.setitem(cli.COMMANDS, name, (help_text, logged, arguments))
    for argv in VALID_ARGV:
        assert cli.main(list(argv)) == 0, argv
    assert ran == [argv[0] for argv in VALID_ARGV]


def test_main_reads_sys_argv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ffdist", "tables", "--d", "6"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "d=6: none (d+2 is a power of two)\n"
    monkeypatch.setattr(sys, "argv", ["ffdist", "verify"])
    assert cli.main() == 2
    assert capsys.readouterr().err.endswith(
        "ffdist verify: error: the following arguments are required: path\n")


def _slots(node):
    """(container, key) of every value nested in a JSON tree."""
    for key in list(node.keys() if isinstance(node, dict)
                    else range(len(node))):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _retyped(value):
    """Values of other JSON types carrying value."""
    out = [json.dumps(value), [value], {"v": value}, None, True, 1.5]
    if type(value) is int:
        out += [float(value), value != 0]
    if isinstance(value, list):
        out.append({str(i): v for i, v in enumerate(value)})
    if isinstance(value, dict):
        out.append(list(value.values()))
    return [v for v in out if type(v) is not type(value)]


def _census_agrees(cert):
    """The claim of a certificate verify accepted, against dist2 on
    every pair of its decoded points."""
    fb = cert["field"]
    f = field_make(fb["p"], fb["k"], fb.get("modulus"))
    points = [tuple(f.deserialize(c) for c in p) for p in cert["points"]]
    census = {dist2(f, x, y)
              for i, x in enumerate(points) for y in points[i + 1:]}
    claim = cert["claim"]
    values = ([claim["delta"]] if claim["type"] == "equilateral"
              else claim["values"])
    return census == {f.deserialize(v) for v in values}


def test_verify_survives_mutated_certificates(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sources = []
    for p, k, d in ((5, 1, 3), (3, 2, 4)):  # 5 and 10, 6 and 15 points
        out = tmp_path / ("k%d.json" % k)
        assert run_cli("construct", "--p", str(p), "--k", str(k),
                       "--d", str(d), "--midpoints", "--out", str(out)) == 0
        sources += [out.read_text(),
                    (tmp_path / ("k%d.midpoints.json" % k)).read_text()]
    hostile = st.one_of(
        st.none(), st.booleans(), st.integers(-2**70, 2**70),
        st.floats(), st.text(max_size=4),
        st.lists(st.integers(-3, 30), max_size=4),
        st.dictionaries(st.text(max_size=2), st.integers(-3, 30),
                        max_size=2))
    bad = tmp_path / "bad.json"

    @hypothesis.settings(max_examples=250, deadline=None)
    @hypothesis.given(st.sampled_from(sources), st.data())
    def check(source, data):
        cert = json.loads(source)
        for _ in range(data.draw(st.integers(1, 3))):
            slots = list(_slots(cert))
            if not slots:
                break
            node, key = data.draw(st.sampled_from(slots))
            value = node[key]
            action = data.draw(st.sampled_from(["value", "delete", "swap"]))
            if action == "delete":
                del node[key]
            elif action == "swap":
                node[key] = data.draw(st.sampled_from(_retyped(value)))
            elif type(value) is int and data.draw(st.booleans()):
                node[key] = value + data.draw(st.integers(-3, 3))
            else:
                node[key] = data.draw(hostile)
        bad.write_text(json.dumps(cert))
        capsys.readouterr()
        start = time.perf_counter()
        code = run_cli("verify", str(bad))
        assert time.perf_counter() - start < 2
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        assert out.startswith("verified: ") == (code == 0)
        if code == 0:
            assert _census_agrees(cert)
    check()


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",  # not UTF-8
    b'{"version": ' + b"9" * 5000 + b"}",  # past the int digit limit
    b"[" * 100000 + b"]" * 100000,  # past the recursion limit
])
def test_verify_unreadable_json_is_schema_error(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert run_cli("verify", str(bad)) == 2
    assert capsys.readouterr().err.startswith(
        "schema error: cannot read certificate: ")
