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
from ffdist import cli

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


def test_no_assert_in_package():
    # mathematical claims must survive python -O
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert not asserts, "%s: assert at lines %s" % (path.name, asserts)


def test_optimized_run_writes_same_bytes(tmp_path):
    _, out, mid = construct_pair(tmp_path, 5, 3)
    opt = tmp_path / "opt"
    opt.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    argv = [sys.executable, "-O", "-m", "ffdist.cli"]
    subprocess.run(argv + ["construct", "--p", "5", "--d", "3", "--b", "1",
                           "--midpoints", "--out", "cert.json"],
                   cwd=opt, env=env, check=True, capture_output=True)
    for name in ("cert.json", "cert.midpoints.json"):
        subprocess.run(argv + ["verify", name], cwd=opt, env=env, check=True,
                       capture_output=True)
    assert (opt / "cert.json").read_bytes() == out.read_bytes()
    assert (opt / "cert.midpoints.json").read_bytes() == mid.read_bytes()


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


def test_search_budget_covers_value_sets():
    # 79800 value pairs in GF(401): the budget must stop their
    # enumeration; unbounded, it alone takes several seconds
    start = time.monotonic()
    code = run_cli("search", "--p", "401", "--d", "1",
                   "--mode", "two_distance", "--budget-secs", "0.5")
    assert code == 3
    assert time.monotonic() - start < 3


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
}


@pytest.mark.parametrize("p,k,d,mode", sorted(CANONICAL_SEARCH_SHA256))
def test_search_canonical_bytes_pinned(tmp_path, p, k, d, mode):
    out = tmp_path / "search.json"
    assert run_cli("search", "--p", p, "--k", k, "--d", d, "--mode", mode,
                   "--canonical", "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CANONICAL_SEARCH_SHA256[(p, k, d, mode)]


def test_tables(capsys):
    assert run_cli("tables", "--p", "3", "--max-d", "10") == 0
    text = capsys.readouterr().out
    assert "1, 4, 7, 10" in text
    assert "collapse=True" in text
    assert run_cli("tables", "--d", "6") == 0
    assert "power of two" in capsys.readouterr().out
    assert run_cli("tables", "--d", "13") == 0
    assert "3, 5" in capsys.readouterr().out


def test_tables_usage():
    assert run_cli("tables") == 2


def test_bad_flags():
    assert run_cli("construct", "--p", "5") == 2  # missing required flags
