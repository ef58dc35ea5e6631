import functools
import itertools
import random
from math import comb

import pytest

from ffdist.field import field_make
from ffdist import geometry
from ffdist.geometry import (
    PointSet, FORM_STANDARD, FORM_SUM_ZERO, spectrum, classify,
    equilateral_upper, blokhuis_bound,
    Equilateral, TwoDistance, Other, TooFewPoints,
)
from ffdist.linalg import DimensionMismatch

from brute_force import dist2, gram, gram_rank


def naive_dist2(p, x, y):
    # independent integer-arithmetic oracle, prime fields only
    return sum((a - b) ** 2 for a, b in zip(x, y)) % p


def assert_pair_norms_match_dist2(s):
    """The packed pass equals dist2, the pair-by-pair reference."""
    rows = s.pair_norms()
    assert [len(r) for r in rows] == list(range(len(s) - 1, -1, -1))
    for i, x in enumerate(s.points):
        for j in range(i + 1, len(s)):
            assert rows[i][j - i - 1] == dist2(s.field, x, s.points[j]), \
                (s.field, i, j)


def test_dist2_examples():
    f3 = field_make(3)
    assert dist2(f3, (1, 2), (1, 2)) == 0
    assert dist2(f3, (0, 0), (1, 1)) == 2
    f5 = field_make(5)
    assert dist2(f5, (0, 0, 0, 0), (2, 1, 1, 1)) == 2


def test_dist2_dimension_mismatch():
    f3 = field_make(3)
    with pytest.raises(DimensionMismatch):
        dist2(f3, (0,), (1, 2))


def test_dist2_symmetry_and_translation_invariance():
    rng = random.Random(31337)
    for p in (3, 5, 7):
        f = field_make(p)
        for _ in range(200):
            d = rng.randint(1, 4)
            x = tuple(rng.randrange(p) for _ in range(d))
            y = tuple(rng.randrange(p) for _ in range(d))
            t = tuple(rng.randrange(p) for _ in range(d))
            assert dist2(f, x, y) == dist2(f, y, x)
            xt = tuple(f.add(a, b) for a, b in zip(x, t))
            yt = tuple(f.add(a, b) for a, b in zip(y, t))
            assert dist2(f, xt, yt) == dist2(f, x, y)
            assert dist2(f, x, y) == naive_dist2(p, x, y)


def test_pointset_invariants():
    f3 = field_make(3)
    with pytest.raises(ValueError):
        PointSet(f3, 1, FORM_STANDARD, [(0,), (0,)])  # duplicate
    with pytest.raises(ValueError):
        PointSet(f3, 2, FORM_SUM_ZERO, [(1, 1)])  # off the hyperplane
    s = PointSet(f3, 2, FORM_SUM_ZERO, [(0, 0), (1, 2)])
    assert s.dimension() == 1
    s2 = PointSet(f3, 2, FORM_STANDARD, [(0, 0), (1, 2)])
    assert s2.dimension() == 2


def test_spectrum_three_points_f3():
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    sp = spectrum(s)
    assert sp == {1: 3}
    assert 0 not in sp


def test_spectrum_all_of_f3_squared():
    # exhaustive 36-pair census: only values 1 and 2 occur, 18 each
    f3 = field_make(3)
    pts = list(itertools.product(range(3), repeat=2))
    s = PointSet(f3, 2, FORM_STANDARD, pts)
    sp = spectrum(s)
    assert sp == {1: 18, 2: 18}
    assert 0 not in sp


def test_spectrum_isotropic_pair():
    f5 = field_make(5)
    s = PointSet(f5, 4, FORM_STANDARD, [(0, 0, 0, 0), (1, 2, 0, 0)])
    sp = spectrum(s)
    assert sp == {0: 1}
    assert 0 in sp


def test_spectrum_counts_sum():
    rng = random.Random(8)
    f5 = field_make(5)
    pts = list(itertools.product(range(5), repeat=2))
    for _ in range(20):
        n = rng.randint(2, 6)
        s = PointSet(f5, 2, FORM_STANDARD, rng.sample(pts, n))
        assert sum(spectrum(s).values()) == comb(n, 2)


def test_spectrum_too_few():
    f3 = field_make(3)
    with pytest.raises(TooFewPoints):
        spectrum(PointSet(f3, 1, FORM_STANDARD, [(0,)]))


def test_classify_examples():
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    assert classify(s) == Equilateral(1)
    pts = list(itertools.product(range(3), repeat=2))
    assert classify(PointSet(f3, 2, FORM_STANDARD, pts)) == TwoDistance(1, 2)
    f5 = field_make(5)
    iso = PointSet(f5, 4, FORM_STANDARD, [(0, 0, 0, 0), (1, 2, 0, 0)])
    got = classify(iso)
    assert isinstance(got, Other) and got.has_zero


def test_gram_examples():
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    g = gram(s)
    assert g == [[1, 2], [2, 1]]
    # any 2-point set: the 1x1 matrix [delta]
    f5 = field_make(5)
    pair = PointSet(f5, 2, FORM_STANDARD, [(0, 0), (1, 1)])
    assert gram(pair) == [[2]]


def test_gram_equilateral_shape():
    # equilateral gram has diagonal delta and off-diagonal delta/2
    from ffdist import construct
    f5 = field_make(5)
    s = construct.modular_equilateral(construct.ModularParams(f5, 3, 1))
    g = gram(s)
    assert len(g) == 4
    half = f5.mul(2, f5.inv(2))  # delta/2 = 1
    for i in range(4):
        for j in range(4):
            assert g[i][j] == (2 if i == j else half)
    assert gram_rank(s) == 3  # n-2 in the modular regime


def test_equilateral_upper():
    f3, f5 = field_make(3), field_make(5)
    assert equilateral_upper(f3, 1) == 3
    assert equilateral_upper(f5, 1) == 2
    assert equilateral_upper(f3, 4) == 6
    f9 = field_make(3, 2)
    assert equilateral_upper(f9, 4) == 6  # depends only on characteristic


def test_blokhuis_bound():
    assert blokhuis_bound(8) == 45
    assert blokhuis_bound(3) == 10
    assert blokhuis_bound(1) == 3


def test_pair_norms_memoized_and_shared_by_classify():
    f5 = field_make(5)
    s = PointSet(f5, 4, FORM_STANDARD, [(0, 0, 0, 0), (1, 2, 0, 0), (4, 4, 4, 4)])
    rows = s.pair_norms()
    assert s.pair_norms() is rows
    assert_pair_norms_match_dist2(s)
    assert spectrum(s) == {0: 2, 4: 1}


def test_extension_coordinates_must_be_encodings():
    f25 = field_make(5, 2)
    for bad in (-1, 25, 2**70):  # -1 would index a table from its end
        for form in (FORM_STANDARD, geometry.FORM_SUM_ZERO):
            with pytest.raises(ValueError, match=r"lie in 0\.\.24"):
                PointSet(f25, 2, form, [(bad, 2), (0, 0)])
    s = PointSet(f25, 2, FORM_STANDARD, [(24, 2), (0, 0)])
    assert_pair_norms_match_dist2(s)
    # k = 1 keeps taking any integer
    PointSet(field_make(5), 2, FORM_STANDARD, [(-1, 2), (0, 25)])


def test_pair_norms_reduce_out_of_range_prime_coordinates():
    f7 = field_make(7)
    s = PointSet(f7, 3, FORM_STANDARD, [(-1, 15, 700), (6, 1, 0), (-8, -6, 3)])
    assert_pair_norms_match_dist2(s)


# (p, k) of every field the property test draws from: small and large
# primes, 2^31 - 1 where the digit width is widest, and extensions
PROPERTY_FIELDS = [(3, 1), (5, 1), (7, 1), (2**31 - 1, 1), (3, 2), (5, 2),
                   (3, 3), (7, 2), (7, 6)]
_fields = {}


def _field(p, k):
    if (p, k) not in _fields:
        _fields[(p, k)] = field_make(p, k)
    return _fields[(p, k)]


def test_pair_norms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point_sets(draw):
        p, k = draw(st.sampled_from(PROPERTY_FIELDS))
        dim = draw(st.integers(1, 60))
        if k == 1:  # any integers: packing reduces them mod p, as dist2
            coord = st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                              st.integers(p - 3, p - 1))
        else:
            coord = st.integers(0, p**k - 1)
        points = draw(st.lists(st.tuples(*[coord] * dim), min_size=2,
                               max_size=8, unique=True))
        return PointSet(_field(p, k), dim, FORM_STANDARD, points)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(point_sets())
    def check(s):
        assert_pair_norms_match_dist2(s)

    check()


def test_sum_zero_check_matches_field_sum():
    # PointSet's lane sums against one field add per coordinate, on and
    # off the hyperplane, up to 80 coordinates (1- and 2-byte lanes)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def points(draw):
        f = _field(*draw(st.sampled_from(PROPERTY_FIELDS)))
        x = draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=80))
        if draw(st.booleans()):  # move the last coordinate onto it
            x[-1] = f.sub(x[-1], functools.reduce(f.add, x, f.zero))
        return f, tuple(x)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(points())
    def check(case):
        f, x = case
        on = functools.reduce(f.add, x, f.zero) == f.zero
        try:
            PointSet(f, len(x), FORM_SUM_ZERO, [x])
        except geometry.OffHyperplane:
            assert not on
        else:
            assert on

    check()
