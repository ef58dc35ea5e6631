import json

import pytest

from ffdist import certificate
from ffdist.construct import ModularParams, embed_standard, modular_equilateral
from ffdist.field import field_make
from ffdist.geometry import FORM_STANDARD


def reference_dumps(cert):
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_property():
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
    coeff = st.integers(-3, 2**40)
    # zero, one and many points; k = 1 coordinates, k > 1 coefficient
    # lists (empty ones too), and values outside the fast path
    points = st.one_of(
        st.lists(st.lists(coeff, max_size=4), max_size=6),
        st.integers(1, 3).flatmap(lambda k: st.lists(
            st.lists(st.lists(coeff, min_size=k, max_size=k), max_size=4),
            max_size=6)),
        st.lists(st.lists(st.lists(coeff, max_size=3), max_size=3),
                 max_size=3),
        json_value)
    certs = st.fixed_dictionaries(
        {"points": points},
        optional={"version": st.integers(), "form": text,
                  "meta": st.dictionaries(text, json_value, max_size=4),
                  "claim": json_value, "z": st.just({}), "a": st.just([])})

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(certs | json_value)
    @hypothesis.example({"points": []})
    @hypothesis.example({"points": [[]], "meta": {"a": [], "b": {}}})
    @hypothesis.example({"points": [[[1, 0]], [[2, 3]]], "points ": 0})
    @hypothesis.example({"points": [[1, True], [1, 1]]})
    @hypothesis.example({"points": [[[1.0, 0]], [[1, 0]]]})
    @hypothesis.example({"points": [[1], [[1]]], "s": "\n  \"points\": 0"})
    @hypothesis.example({"points": [[1]], "s": "\n  \"points\": 0"})
    @hypothesis.example({"points": [[1]], "meta": {"points": 0}, "a": 0})
    def check(cert):
        assert certificate.dumps(cert) == reference_dumps(cert)
    check()


@pytest.mark.parametrize("p,k,d", [(5, 2, 28), (3, 2, 7), (5, 1, 8)])
def test_dumps_of_made_certificates(p, k, d):
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, d))
    if k > 1:
        s = embed_standard(s)
    cert = certificate.make(s, certificate.equilateral_claim(f, 2),
                            {"bounds": certificate.bounds_block(d, len(s))})
    assert certificate.dumps(cert) == reference_dumps(cert)


def test_make_points_are_independent_lists():
    f = field_make(5, 2)
    s = modular_equilateral(ModularParams(f, 3, b=7))
    cert = certificate.make(s, certificate.equilateral_claim(f, 2), {})
    before = json.loads(json.dumps(cert["points"]))
    cert["points"][1][2][0] = 99
    after = json.loads(json.dumps(cert["points"]))
    changed = [(i, j) for i, (p, q) in enumerate(zip(before, after))
               for j, (a, b) in enumerate(zip(p, q)) if a != b]
    assert changed == [(1, 2)]
    assert after[1][2] == [99] + before[1][2][1:]


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
        path.write_text(certificate.dumps(cert))
        _, s = certificate.load(str(path))
        assert s.points == expected
    check()

