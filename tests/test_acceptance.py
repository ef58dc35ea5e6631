"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import itertools
import json
import time
from math import comb

from ffdist.field import field_make, SquareClass
from ffdist import certificate, cli, construct, geometry, search, srg
from ffdist.construct import (
    ModularParams, modular_equilateral, midpoints, embed_standard,
    sharp_dimensions,
)
from ffdist.geometry import PointSet, FORM_STANDARD, classify, Equilateral, \
    TwoDistance
from ffdist.linalg import gram_rank_law, NotIsometric

from brute_force import brute_force_classify_all, gram_rank


def report(number, ok, text):
    print("ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", text))
    assert ok, "acceptance criterion %d failed: %s" % (number, text)


def construction_grid():
    for p in (3, 5, 7, 11, 13):
        f = field_make(p)
        for d in sharp_dimensions(p, 25):
            for b in (1, 2):
                yield f, d, b


def test_criterion_1_construction_grid():
    start = time.monotonic()
    ok = True
    count = 0
    for f, d, b in construction_grid():
        count += 1
        params = ModularParams(f, d, b)
        s = modular_equilateral(params)
        # hyperplane membership is enforced by the PointSet constructor
        ok &= len(s) == d + 2
        ok &= s.form == geometry.FORM_SUM_ZERO
        ok &= classify(s) == Equilateral((2 * b * b) % f.p)
        ok &= gram_rank(s) == d
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, ok, "construction grid: %d cases, all d+2 points at 2b^2, "
           "rank d, %.2fs" % (count, elapsed))


def test_criterion_2_midpoint_lemma():
    ok = True
    for f, d, b in construction_grid():
        s = modular_equilateral(ModularParams(f, d, b))
        mid = midpoints(s)  # checks the midpoint lemma exactly
        n = d + 2
        ok &= len(mid.points) == comb(n, 2) == geometry.blokhuis_bound(d)
    report(2, ok, "midpoint lemma exhaustive on the grid, "
           "|midpoints| = C(d+2,2) = blokhuis_bound(d)")


def test_criterion_3_rank_law():
    ok = True
    for p in (3, 5, 7, 11):
        f = field_make(p)
        for n in range(2, 41):
            want = n - 2 if n % p == 0 else n - 1
            ok &= gram_rank_law(n, f) == want
    report(3, ok, "rank of I+J equals n-2 iff p | n, else n-1, "
           "for n <= 40, p in {3,5,7,11}")


def test_criterion_4_srg_suite():
    start = time.monotonic()
    f11 = field_make(11)
    big = modular_equilateral(ModularParams(f11, 9, 1))
    ok = True
    for n in range(4, 11):
        sub = PointSet(f11, big.ambient_dim, big.form, big.points[:n])
        mid = midpoints(sub)
        rows = srg.midpoint_graph(mid.points, mid.d4)
        params = srg.expected_params(n)
        ok &= [params[key] for key in ("v", "k", "lambda", "mu")] == \
            [comb(n, 2), 2 * (n - 2), n - 2, 4]
        ok &= params["eigenvalues"] == [(2 * (n - 2), 1), (n - 4, n - 1),
                                        (-2, n * (n - 3) // 2)]
        ok &= srg.srg_check(rows, n) == dict(ok=True, n=n, **params)
        for p in (3, 5, 7, 11):
            ok &= srg.eigen_collapse(n, p)["collapse"] == (n % p == 0)
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    report(4, ok, "SRG identity, spectrum and eigenvalue collapse for "
           "n in 4..10, %.2fs" % elapsed)


def test_criterion_5_embedding():
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))
    emb = embed_standard(s)  # asserts distance preservation internally
    mid = midpoints(emb)
    ok = emb.form == FORM_STANDARD and emb.ambient_dim == 3
    ok &= classify(mid.points) == TwoDistance(3, 1)
    ok &= len(mid.points) == 10 == geometry.blokhuis_bound(3)
    f3 = field_make(3)
    s34 = modular_equilateral(ModularParams(f3, 4, 1))
    try:
        embed_standard(s34)
        ok = False
    except NotIsometric as exc:
        ok &= exc.witness == 2
        ok &= exc.witness_class is SquareClass.NONSQUARE
    report(5, ok, "(5,3) embeds to standard F_5^3 attaining C(5,2)=10; "
           "(3,4) fails with square-class witness 2")


def test_criterion_6_oracle_search():
    cases = [
        (3, 1, search.MODE_TWO_DISTANCE, 3, "attained"),
        (3, 1, search.MODE_EQUILATERAL, 3, None),
        (5, 1, search.MODE_EQUILATERAL, 2, None),
        (3, 2, search.MODE_EQUILATERAL, 3, None),
        (3, 2, search.MODE_TWO_DISTANCE, 9, "exceeded"),
    ]
    ok = True
    for p, d, mode, want, status in cases:
        f = field_make(p)
        prob = search.SearchProblem(f, d, mode, budget_secs=60)
        if mode == search.MODE_EQUILATERAL:
            r = search.max_equilateral(prob)
        else:
            r = search.max_two_distance(prob)
        ok &= r.exhausted and r.max_size == want
        if status is not None:
            meta = certificate.derived_meta(r.witness, classify(r.witness))
            ok &= meta["search"]["bound_status"] == status
    # F_3^2 exceeding C(4,2)=6 is the desk-scale counterexample to a
    # verbatim transfer of the quadratic bound
    ok &= geometry.blokhuis_bound(2) == 6
    report(6, ok, "oracle values: F_3 line 3/3, F_5 line 2, F_3 plane 3 "
           "equilateral and 9 two-distance (exceeds 6)")


def test_criterion_7_oracle_agreement():
    ok = True
    for p, d in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        f = field_make(p)
        for mode in (search.MODE_EQUILATERAL, search.MODE_TWO_DISTANCE):
            prob = search.SearchProblem(f, d, mode, budget_secs=60)
            if mode == search.MODE_EQUILATERAL:
                r = search.max_equilateral(prob)
            else:
                r = search.max_two_distance(prob)
            bf_best = 1
            for n in range(2, 5):
                census = brute_force_classify_all(f, d, n)
                if mode == search.MODE_EQUILATERAL:
                    count = census["equilateral"]
                else:
                    count = census["equilateral"] + census["two_distance"]
                if count > 0:
                    bf_best = n
            ok &= r.exhausted
            ok &= min(r.max_size, 4) == bf_best
    report(7, ok, "clique engine agrees with the exhaustive subset census "
           "on all feasible instances")


def test_criterion_8_field_properties():
    import random
    rng = random.Random(1)
    ok = True
    fields = [field_make(3), field_make(5), field_make(7),
              field_make(3, 2), field_make(3, 3)]
    for f in fields:
        els = list(f.elements())
        for _ in range(10**4):
            a, b, c = (rng.choice(els) for _ in range(3))
            ok &= f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            ok &= f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            ok &= f.add(a, b) == f.add(b, a)
            ok &= f.mul(a, b) == f.mul(b, a)
            ok &= f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.q <= 81
        for a in els:
            if a != f.zero:
                ok &= f.mul(a, f.inv(a)) == f.one
    report(8, ok, "10^4 randomized axiom checks per field in "
           "{F_3,F_5,F_7,F_9,F_27}, exhaustive inverses")


def test_criterion_9_certificate_roundtrip(tmp_path):
    ok = True
    # round trip and byte stability
    for run in ("a", "b"):
        out = tmp_path / ("%s.json" % run)
        code = cli.main(["construct", "--p", "5", "--d", "3", "--b", "1",
                         "--midpoints", "--out", str(out)])
        ok &= code == 0
        ok &= cli.main(["verify", str(out)]) == 0
        ok &= cli.main(["verify", str(tmp_path / ("%s.midpoints.json" % run))]) == 0
    ok &= (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ok &= (tmp_path / "a.midpoints.json").read_bytes() == \
        (tmp_path / "b.midpoints.json").read_bytes()
    # any single-coordinate corruption must be rejected
    cert = json.loads((tmp_path / "a.json").read_text())
    bad = tmp_path / "bad.json"
    for i in range(len(cert["points"])):
        for j in range(len(cert["points"][i])):
            mutated = json.loads((tmp_path / "a.json").read_text())
            mutated["points"][i][j] = (mutated["points"][i][j] + 1) % 5
            bad.write_text(json.dumps(mutated))
            ok &= cli.main(["verify", str(bad)]) != 0
    report(9, ok, "construct/verify round trip, byte-stable output, "
           "all corruptions rejected")
