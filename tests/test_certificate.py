import json
from functools import reduce

import pytest

from ffdist import certificate, cli, construct, srg
from ffdist.construct import ModularParams, embed_standard, modular_equilateral
from ffdist.field import field_make
from ffdist.geometry import FORM_STANDARD, FORM_SUM_ZERO, PointSet
from ffdist.linalg import NotIsometric

from test_construct import grid


def reference_dumps(s, claim, meta):
    """json.dumps of the certificate of s, each point a list of
    f.serialize of its coordinates."""
    f = s.field
    cert = {"version": 1, "field": certificate.field_block(f),
            "ambient_dim": s.ambient_dim, "form": s.form,
            "points": [[f.serialize(a) for a in x] for x in s.points],
            "claim": claim, "meta": meta}
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_property():
    """dumps(s, claim, meta) against json.dumps on point sets s over
    GF(p) up to p = 2^31 - 1 (multi-digit element texts) and GF(p^k),
    of one point and many, in both forms, under any JSON meta."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(alphabet=st.sampled_from(list(',[]{}":\\\n\t aé€😀')),
                   max_size=8)
    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | text
        | st.floats(allow_nan=False),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(text, inner, max_size=3),
        max_leaves=12)
    fields = [field_make(p, k) for p, k in (
        (3, 1), (11, 1), (65537, 1), (2**31 - 1, 1),
        (3, 2), (5, 2), (3, 3), (3, 4))]

    @st.composite
    def point_sets(draw):
        f = draw(st.sampled_from(fields))
        form = draw(st.sampled_from((FORM_STANDARD, FORM_SUM_ZERO)))
        # free coordinates; a sum-zero point's last one is their -sum
        free = draw(st.integers(1, 4))
        element = st.integers(0, f.q - 1)
        rows = draw(st.lists(st.lists(element, min_size=free,
                                      max_size=free),
                             min_size=1, max_size=8, unique_by=tuple))
        if form == FORM_SUM_ZERO:
            rows = [row + [f.neg(reduce(f.add, row))] for row in rows]
        return PointSet(f, len(rows[0]), form, rows)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(point_sets(), st.dictionaries(text, json_value,
                                                    max_size=4))
    @hypothesis.example(PointSet(fields[3], 1, FORM_STANDARD, [[2**31 - 2]]),
                        {"points": 0, "s": "\n  \"points\": 0"})
    @hypothesis.example(PointSet(fields[5], 2, FORM_SUM_ZERO,
                                 [[7, fields[5].neg(7)], [0, 0]]),
                        {"a": [], "b": {}})
    def check(s, meta):
        claim = certificate.equilateral_claim(s.field, s.points[0][0])
        assert (certificate.dumps(s, claim, meta)
                == reference_dumps(s, claim, meta))
    check()


@pytest.mark.parametrize("p,k,d", [(5, 2, 28), (3, 2, 7), (5, 1, 8),
                                   (3, 3, 25), (3, 4, 10)])
def test_dumps_of_made_certificates(p, k, d):
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, d))
    if k > 1:
        try:
            s = embed_standard(s)
        except NotIsometric:  # GF(27): the hyperplane set as it is
            pass
    claim = certificate.equilateral_claim(f, 2)
    meta = certificate.derived_meta(s, None)
    # the points text formatted from the encodings of s
    assert (certificate.dumps(s, claim, meta)
            == reference_dumps(s, claim, meta))


def test_bulk_decode_matches_element_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = {(p, k): field_make(p, k)
              for p, k in ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4))}

    @st.composite
    def certs(draw):
        p, k = draw(st.sampled_from(sorted(fields)))
        dim = draw(st.integers(1, 4))
        # coefficients outside 0..p-1 are taken mod p, as _element does
        coeff = st.integers(-2 * p, 3 * p) | st.integers(-2**70, 2**70)
        coord = st.lists(coeff, min_size=k, max_size=k)
        points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                               min_size=2, max_size=6))
        return fields[p, k], dim, points

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(certs())
    def check(case):
        f, dim, raw = case
        expected = [tuple(certificate._element(f, c, "coordinate")
                          for c in rp) for rp in raw]
        hypothesis.assume(len(set(expected)) == len(expected))
        claim = {"type": "equilateral", "delta": f.serialize(f.one)}
        cert = {"version": 1, "field": certificate.field_block(f),
                "ambient_dim": dim, "form": FORM_STANDARD, "points": raw,
                "claim": claim}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cert))
        _, s, _ = certificate.load(str(path))
        assert s.points == expected
    check()



@pytest.mark.parametrize("p,k,d", [(3, 2, 7), (7, 2, 5)])
def test_whole_list_decode_matches_per_point_loop(p, k, d):
    """certificate._decode against _decode_each on a made GF(9) / GF(49)
    certificate, as it is and with a coordinate of its first, a middle
    or its last point replaced: the same points or the same
    SchemaError text."""
    f = field_make(p, k)
    s = embed_standard(modular_equilateral(ModularParams(f, d)))
    made = json.loads(certificate.dumps(
        s, certificate.equilateral_claim(f, 1), {}))["points"]
    dim = s.ambient_dim

    def outcome(decode, raw):
        try:
            return decode(f, dim, raw)
        except certificate.SchemaError as exc:
            return str(exc)
    cases = [made]
    for i in (0, len(s) // 2, len(s) - 1):
        for j in (0, dim - 1):
            for value in ([p, -1], [3 * p + 1, 2**70], True, 2, 1.5, "1",
                          [1], [1, 2, 3], [1, True], [1, None], None):
                raw = json.loads(json.dumps(made))
                raw[i][j] = value
                cases.append(raw)
        for point in (made[i][:-1], "x"):  # a malformed point
            raw = json.loads(json.dumps(made))
            raw[i] = point
            cases.append(raw)
    outcomes = [outcome(certificate._decode_each, raw) for raw in cases]
    assert list(map(outcome, [certificate._decode] * len(cases),
                    cases)) == outcomes
    assert outcomes[0] == s.points
    # 3 points, 2 coordinates, 9 bad values; 3 points, 2 bad forms
    assert sum(isinstance(o, str) for o in outcomes) == 3 * 2 * 9 + 3 * 2


# The midpoint lemma path of verify against the census path.

def construct_midpoints(tmp_path, *args):
    """Path of the midpoint certificate construct --midpoints writes."""
    out = tmp_path / "c.json"
    assert cli.main(["construct", *args, "--midpoints",
                     "--out", str(out)]) == 0
    return tmp_path / "c.midpoints.json"


def census_only(monkeypatch):
    """Send every file down verify's census path."""
    monkeypatch.setattr(construct, "midpoint_sources", lambda s: None)


def edited(tmp_path, path, edit, name="edited.json"):
    """A copy of the certificate at path, changed by edit(cert)."""
    cert = json.loads(path.read_text())
    edit(cert)
    out = tmp_path / name
    out.write_text(json.dumps(cert))
    return out


def verify_both(path, monkeypatch):
    """verify's reports on the lemma path and on the census path."""
    lemma = certificate.verify(str(path))
    with monkeypatch.context() as patch:
        census_only(patch)
        census = certificate.verify(str(path))
    return lemma, census


EQUIVALENCE_CASES = [("--p", str(f.p), "--d", str(d), "--b", str(b))
                     for f, d, b in grid()] + [
    ("--p", "7", "--d", "47"),  # v = 1,176
    ("--p", "3", "--k", "2", "--d", "4", "--b", "4"),
    ("--p", "3", "--k", "2", "--d", "7"),
    ("--p", "5", "--k", "2", "--d", "3", "--b", "7"),
    ("--p", "5", "--k", "2", "--d", "28", "--embed", "standard"),
    ("--p", "5", "--d", "3", "--embed", "standard"),
    ("--p", "13", "--d", "24", "--embed", "standard"),
]


def test_lemma_and_census_reports_agree(tmp_path, monkeypatch):
    for args in EQUIVALENCE_CASES:
        mid = construct_midpoints(tmp_path, *args)
        lemma, census = verify_both(mid, monkeypatch)
        n = int(args[args.index("--d") + 1]) + 2
        assert lemma.pop("method") == (
            "midpoint_lemma" if n >= 4 else "census"), args
        assert census.pop("method") == "census"
        assert lemma == census, args


def test_shuffled_midpoints_verify_through_the_census(tmp_path,
                                                      monkeypatch):
    mid = construct_midpoints(tmp_path, "--p", "7", "--d", "5")
    lemma = certificate.verify(str(mid))
    shuffled = edited(tmp_path, mid, lambda c: c["points"].reverse())
    report = certificate.verify(str(shuffled))
    assert report.pop("method") == "census"
    assert lemma.pop("method") == "midpoint_lemma"
    assert report == lemma
    # the equilateral source certificate has no two-distance claim
    report = certificate.verify(str(tmp_path / "c.json"))
    assert report["method"] == "census"


def midpoint_graph_calls(monkeypatch, *failures):
    """Spy on srg.midpoint_graph: the edge values it is called with.  With
    failures, each call raises BadDistanceValue naming its value."""
    calls, made = [], srg.midpoint_graph

    def spy(s, edge):
        calls.append(edge)
        if failures:
            raise srg.BadDistanceValue("no graph at %d" % edge)
        return made(s, edge)

    monkeypatch.setattr(srg, "midpoint_graph", spy)
    return calls


@pytest.mark.parametrize("p,d", [(3, 7), (7, 5)])
def test_census_recheck_builds_one_graph_at_p3(tmp_path, monkeypatch, p, d):
    # at p = 3 delta/2 < delta/4, so the value order alone would build the
    # complement of T(n) first; point 0's degree in the census picks
    # delta/4, and a well-formed file builds one graph.  At n = d + 2 = 7
    # the complement's degree is 2(n - 2) = 10 too, so the value order
    # decides and p = 7 (delta/2 = 1 < delta/4 = 4) builds both
    mid = construct_midpoints(tmp_path, "--p", str(p), "--d", str(d))
    d4, d2 = json.loads(mid.read_text())["claim"]["values"]
    assert d2 < d4
    reversed_file = edited(tmp_path, mid, lambda c: c["points"].reverse())
    calls = midpoint_graph_calls(monkeypatch)
    report = certificate.verify(str(reversed_file))
    assert report["method"] == "census" and report["checks"]["srg"] == "passed"
    assert calls == ([d4] if d + 2 != 7 else [d2, d4])


def test_census_recheck_reports_both_failures_in_value_order(
        tmp_path, monkeypatch):
    mid = construct_midpoints(tmp_path, "--p", "3", "--d", "7")
    reversed_file = edited(tmp_path, mid, lambda c: c["points"].reverse())
    calls = midpoint_graph_calls(monkeypatch, "fail")
    with pytest.raises(certificate.VerificationFailure) as failure:
        certificate.verify(str(reversed_file))
    assert sorted(calls) == [1, 2] and calls != [1, 2]
    assert str(failure.value) == ("SRG recheck failed for either edge "
                                  "value: no graph at 1; no graph at 2")


def _move(point, p):
    """point moved along e_0 - e_1, on the same hyperplane."""
    return [(point[0] + 1) % p, (point[1] - 1) % p] + point[2:]


def _move_source(tmp_path):
    """The p = 5, d = 3 midpoint file rebuilt from sources with x_3
    moved: every point is a midpoint, but of a set that is not
    equilateral."""
    xs = json.loads((tmp_path / "c.json").read_text())["points"]
    xs[3] = _move(xs[3], 5)

    def rebuild(cert):  # 3 = 1/2 in GF(5)
        cert["points"] = [[3 * (a + b) % 5 for a, b in zip(x, y)]
                          for i, x in enumerate(xs) for y in xs[i + 1:]]
    return rebuild, xs


@pytest.mark.parametrize("what,message", [
    ("midpoint", "points classify as Other(3 values, has_zero=False), "
                 "claim says two_distance"),
    ("source", "points classify as Other(5 values, has_zero=True), "
               "claim says two_distance"),
    ("n", "point count does not match C(n,2)"),
])
def test_each_lemma_step_is_live(tmp_path, monkeypatch, what, message):
    mid = construct_midpoints(tmp_path, "--p", "5", "--d", "3")
    if what == "midpoint":
        def edit(cert):
            cert["points"][4] = _move(cert["points"][4], 5)
    elif what == "source":
        edit, xs = _move_source(tmp_path)
    else:
        def edit(cert):
            cert["meta"]["srg_report"]["n"] = 6
    bad = edited(tmp_path, mid, edit)
    _, s, _ = certificate.load(str(bad))
    sources = construct.midpoint_sources(s)
    if what == "midpoint":
        assert sources is None
    elif what == "source":  # read back, and classified: not equilateral
        assert sources == [tuple(x) for x in xs]
    with pytest.raises(certificate.VerificationFailure) as lemma:
        certificate.verify(str(bad))
    census_only(monkeypatch)
    with pytest.raises(certificate.VerificationFailure) as census:
        certificate.verify(str(bad))
    assert str(lemma.value) == str(census.value) == message


@pytest.mark.parametrize("change", [
    {"ok": False, "k": 0, "eigenvalues": [[99, 1]]},
    {"ok": False}, {"ok": 1}, {"k": 0}, {"k": 6.0}, {"mu": 3},
    {"eigenvalues": [[6, 1], [1, 4]]}, {"failure": "none"},
])
@pytest.mark.parametrize("reverse", [False, True])  # lemma, census path
def test_verify_rejects_edited_srg_report(tmp_path, capsys, change,
                                          reverse):
    mid = construct_midpoints(tmp_path, "--p", "5", "--d", "3")

    def edit(cert):
        cert["meta"]["srg_report"].update(change)
        if reverse:
            cert["points"].reverse()
    bad = edited(tmp_path, mid, edit)
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "verification failed: meta.srg_report is not the report of T(5)\n")


def test_verify_rejects_srg_report_missing_a_key(tmp_path, capsys):
    mid = construct_midpoints(tmp_path, "--p", "5", "--d", "3")
    bad = edited(tmp_path, mid,
                 lambda cert: cert["meta"]["srg_report"].pop("lambda"))
    assert cli.main(["verify", str(bad)]) == 1
