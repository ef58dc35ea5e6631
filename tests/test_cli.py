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
    # a fixed distance value of 0 (here 5 = 0 mod 5) is a usage error
    assert run_cli("search", "--p", "5", "--d", "2", "--mode",
                   "two_distance", "--fix-values", "5,2") == 2
