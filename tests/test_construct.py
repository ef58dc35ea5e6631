import functools
from itertools import count
from math import comb

import pytest

from ffdist.field import field_make, SquareClass
from ffdist import cli, construct, geometry
from ffdist.construct import (
    ModularParams, modular_equilateral, midpoints, midpoint_sources,
    embed_standard, sharp_dimensions, admissible_chars, NotModular,
    ZeroScale, NotEquilateral,
)
from ffdist.geometry import (
    PointSet, FORM_STANDARD, FORM_SUM_ZERO, classify, Equilateral,
    TwoDistance,
)
from ffdist.linalg import LawViolated, NotIsometric
from ffdist.srg import BadDistanceValue

import brute_force
from brute_force import dist2, gram_rank, midpoint_census
from test_geometry import assert_pair_norms_match_dist2


def grid():
    for p in (3, 5, 7, 11, 13):
        f = field_make(p)
        for d in sharp_dimensions(p, 25):
            for b in (1, 2):
                yield f, d, b


def test_modular_params_validation():
    f3 = field_make(3)
    with pytest.raises(NotModular):
        ModularParams(f3, 2)
    with pytest.raises(ZeroScale):
        ModularParams(f3, 1, 0)
    for d in (0, -2, -5):  # p divides d + 2, but there is no space
        with pytest.raises(ValueError):
            ModularParams(f3, d)


def test_modular_equilateral_p3_d1():
    f3 = field_make(3)
    s = modular_equilateral(ModularParams(f3, 1, 1))
    assert s.points == [(0, 0), (2, 1), (1, 2)]
    assert classify(s) == Equilateral(2)


def test_modular_equilateral_p5_d3():
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))
    assert s.points == [(0, 0, 0, 0), (2, 1, 1, 1), (1, 2, 1, 1),
                        (1, 1, 2, 1), (1, 1, 1, 2)]
    assert classify(s) == Equilateral(2)
    assert s.form == FORM_SUM_ZERO


def test_modular_grid():
    for f, d, b in grid():
        params = ModularParams(f, d, b)
        s = modular_equilateral(params)
        assert len(s) == d + 2
        assert s.form == FORM_SUM_ZERO  # hyperplane constraint checked in ctor
        cls = classify(s)
        assert cls == Equilateral(params.delta)
        assert params.delta == (2 * b * b) % f.p
        assert gram_rank(s) == d


def test_modular_equilateral_extension_field():
    # only the characteristic matters; run the same construction in F_9
    f9 = field_make(3, 2)
    t = 3  # the generator t, encoded as p
    s = modular_equilateral(ModularParams(f9, 4, t))
    assert len(s) == 6
    delta = f9.mul(f9.coerce(2), f9.mul(t, t))
    assert classify(s) == Equilateral(delta)
    assert gram_rank(s) == 4


def test_midpoints_p5_d3():
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))
    mid = midpoints(s)
    assert len(mid.points) == 10
    assert classify(mid.points) == TwoDistance(3, 1)  # delta/4, delta/2
    assert mid.points.points[0] == (1, 3, 3, 3)  # M_01
    assert mid.points.points[1] == (3, 1, 3, 3)  # M_02
    assert dist2(f5, (1, 3, 3, 3), (3, 1, 3, 3)) == 3


def test_midpoints_n3_is_equilateral():
    # with only 3 source points all edges pairwise intersect, so the
    # midpoint set has the single value delta/4
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    mid = midpoints(s)
    assert sorted(mid.points.points) == [(0,), (1,), (2,)]
    assert classify(mid.points) == Equilateral(1)
    # all three midpoint pairs are shared-vertex pairs: L(K_3) = K_3
    assert midpoint_census(mid, 3) == [0b110, 0b101, 0b011]
    # the lemma needs n >= 4, where the set is two-distance
    assert midpoint_sources(mid.points) is None


def test_midpoints_n3_rejects_a_pair_off_delta_quarter(monkeypatch):
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    pair_norms = PointSet.pair_norms

    def corrupted(self):
        rows = pair_norms(self)
        return rows if self is s else [[2, 1], [1], []]

    monkeypatch.setattr(PointSet, "pair_norms", corrupted)
    with pytest.raises(LawViolated, match="midpoints of 3 points"):
        midpoints(s)


def test_midpoints_requires_equilateral():
    f3 = field_make(3)
    import itertools
    pts = list(itertools.product(range(3), repeat=2))
    with pytest.raises(NotEquilateral):
        midpoints(PointSet(f3, 2, FORM_STANDARD, pts))


@pytest.mark.parametrize("pair,value,error,match", [
    # M_01 and M_23 (midpoints 0 and 7) are disjoint edges, at d2 = 1
    ((0, 7), 3, LawViolated, r"\(0, 1\)/\(2, 3\)"),
    # M_01 and M_02 share vertex 0, at d4 = 3
    ((0, 1), 1, LawViolated, r"\(0, 1\)/\(0, 2\)"),
    ((0, 7), 2, BadDistanceValue, r"pair \(0, 7\)"),
    ((4, 9), 4, BadDistanceValue, r"pair \(4, 9\)"),
])
def test_midpoints_rejects_corrupted_pair_norm(monkeypatch, pair, value,
                                               error, match):
    # the census oracle, on the midpoint set with one pair norm changed
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))  # delta = 2
    mid = midpoints(s)
    pair_norms = PointSet.pair_norms

    def corrupted(self):
        rows = pair_norms(self)
        if self is not mid.points:
            return rows
        i, j = pair
        rows = [list(r) for r in rows]
        rows[i][j - i - 1] = value
        return rows

    monkeypatch.setattr(PointSet, "pair_norms", corrupted)
    with pytest.raises(error, match=match):
        midpoint_census(mid, len(s))


def corrupt_midpoint(monkeypatch, t, v=10):
    """Make construct build its sets of v points with point t moved
    along e_0 - e_1, which keeps it on the sum-zero hyperplane."""
    real = construct.PointSet

    def corrupted(f, dim, form, points):
        if len(points) == v:
            x = list(points[t])
            x[0], x[1] = f.add(x[0], f.one), f.sub(x[1], f.one)
            points = points[:t] + [tuple(x)] + points[t + 1:]
        return real(f, dim, form, points)

    monkeypatch.setattr(construct, "PointSet", corrupted)


@pytest.mark.parametrize("t", [0, 1, 4, 7, 9])
def test_midpoints_rejects_corrupted_midpoint(monkeypatch, t):
    # the lemma check: a moved midpoint m_ij is not (x_i + x_j)/2 of the
    # input points, whether or not it changes the recovered x_0
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))
    corrupt_midpoint(monkeypatch, t)
    with pytest.raises(LawViolated, match="midpoints of 5 points"):
        midpoints(s)


def test_midpoint_lemma_exhaustive_grid():
    for f, d, b in grid():
        s = modular_equilateral(ModularParams(f, d, b))
        mid = midpoints(s)  # checks the midpoint lemma exactly
        n = d + 2
        assert midpoint_sources(mid.points) == (s.points if n >= 4 else None)
        assert len(mid.points) == comb(n, 2) == geometry.blokhuis_bound(d)
        # graph rows hold the shared-vertex pairs, at delta/4; the
        # disjoint-edge pairs are the census count at delta/2
        graph = midpoint_census(mid, n)  # re-verifies every pair distance
        shared = sum(r.bit_count() for r in graph) // 2
        disjoint = geometry.spectrum(mid.points).get(mid.d2, 0)
        # each midpoint meets 2(n-2) others in a vertex: handshake count
        assert shared == comb(n, 2) * (n - 2)
        assert shared + disjoint == comb(len(mid.points), 2)


def test_pair_norms_match_dist2_on_grid():
    # the equilateral set, its standard embedding where it exists, and
    # its midpoints up to n = 20 (190 points; larger sets cost seconds
    # of dist2 calls, and the property test covers dimensions to 60)
    for f, d, b in grid():
        s = modular_equilateral(ModularParams(f, d, b))
        assert_pair_norms_match_dist2(s)
        if d + 2 <= 20:
            assert_pair_norms_match_dist2(midpoints(s).points)
        try:
            assert_pair_norms_match_dist2(embed_standard(s))
        except NotIsometric:
            pass


def test_delta_quarter_and_half_differ():
    for f, d, b in grid():
        params = ModularParams(f, d, b)
        q4 = f.mul(params.delta, f.inv(f.coerce(4)))
        q2 = f.mul(params.delta, f.inv(f.coerce(2)))
        assert q4 != q2  # equality would force characteristic 2


def test_embed_standard_p5_d3():
    f5 = field_make(5)
    s = modular_equilateral(ModularParams(f5, 3, 1))
    emb = embed_standard(s)
    assert emb.form == FORM_STANDARD
    assert emb.ambient_dim == 3
    assert classify(emb) == Equilateral(2)
    mid = midpoints(emb)
    assert len(mid.points) == 10
    assert classify(mid.points) == TwoDistance(3, 1)
    assert len(mid.points) == geometry.blokhuis_bound(3)


def test_embed_standard_obstruction_p3_d4():
    f3 = field_make(3)
    s = modular_equilateral(ModularParams(f3, 4, 1))
    with pytest.raises(NotIsometric) as exc:
        embed_standard(s)
    assert exc.value.witness_class is SquareClass.NONSQUARE
    assert exc.value.witness == 2


def test_embed_standard_obstruction_p3_d1():
    # the embedding map fails for (p=3, d=1) even though a 3-point
    # equilateral set in standard F_3^1 exists ({0,1,2}): the
    # obstruction is about this map, not about existence
    f3 = field_make(3)
    s = modular_equilateral(ModularParams(f3, 1, 1))
    with pytest.raises(NotIsometric):
        embed_standard(s)
    standard = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    assert classify(standard) == Equilateral(1)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (13, 1)])
def test_embed_isometry_law_is_checked(monkeypatch, p, k):
    # a basis with one entry changed fails w_i . w_j = 1 if i = j, else 0
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, p - 2, 1))
    real = construct.isometry_to_standard

    def corrupted(field, vectors):
        w = real(field, vectors)
        w[-1][0] = field.add(w[-1][0], field.one)
        return w
    monkeypatch.setattr(construct, "isometry_to_standard", corrupted)
    with pytest.raises(LawViolated, match="basis is not orthonormal"):
        embed_standard(s)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (13, 1)])
def test_embed_pair_norm_law_is_checked(monkeypatch, p, k):
    # a map that passes the identity check but moves one point
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, p - 2, 1))
    real = construct.row_product

    def corrupted(field, rows):
        row = real(field, rows)

        def wrong(a, start=0):
            out = row(a, start)
            if tuple(a) == s.points[2]:
                out[0] = field.add(out[0], field.one)
            return out
        return wrong
    monkeypatch.setattr(construct, "row_product", corrupted)
    with pytest.raises(LawViolated, match="embedding moved point 2"):
        embed_standard(s)


@pytest.mark.parametrize("p,k,d", [(5, 1, 8), (5, 2, 3), (13, 1, 24),
                                   (3, 2, 1)])
def test_embed_runs_no_census(monkeypatch, p, k, d):
    # W W^T = I and the round trip prove the distances, so no pair
    # census runs; the distances still match once the census is back
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, d, 1))

    def refuse(self):
        raise AssertionError("embed_standard ran a pair census")
    monkeypatch.setattr(geometry.PointSet, "pair_norms", refuse)
    emb = embed_standard(s)
    monkeypatch.undo()
    assert emb.pair_norms() == s.pair_norms()


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (13, 1)])
def test_embed_round_trip_is_checked(monkeypatch, tmp_path, p, k):
    # the map back, row_product of the basis rows w (one fewer row than
    # columns), gets one coordinate of point 3 wrong: W^T y_3 != p_3,
    # and construct writes no file
    f = field_make(p, k)
    s = modular_equilateral(ModularParams(f, p - 2, 1))
    real = construct.row_product

    def corrupted(field, rows):
        row = real(field, rows)
        if len(rows[0]) != len(rows) + 1:
            return row
        calls = count()

        def wrong(a, start=0):
            out = row(a, start)
            if next(calls) == 3:
                out[-1] = field.add(out[-1], field.one)
            return out
        return wrong
    monkeypatch.setattr(construct, "row_product", corrupted)
    with pytest.raises(LawViolated, match="embedding moved point 3"):
        embed_standard(s)
    out = tmp_path / "e.json"
    with pytest.raises(LawViolated, match="embedding moved point 3"):
        cli.main(["construct", "--p", str(p), "--k", str(k), "--d",
                  str(p - 2), "--embed", "standard", "--out", str(out)])
    assert not out.exists()


def test_embed_preserves_distances_on_grid():
    # every (p, d) in the grid whose hyperplane discriminant is a
    # square must embed with all distances intact (embed_standard
    # asserts preservation internally)
    for f, d, b in grid():
        s = modular_equilateral(ModularParams(f, d, b))
        try:
            emb = embed_standard(s)
        except NotIsometric:
            continue
        assert classify(emb) == classify(s)


def test_sharp_dimensions():
    assert sharp_dimensions(3, 20) == [1, 4, 7, 10, 13, 16, 19]
    assert sharp_dimensions(5, 20) == [3, 8, 13, 18]
    assert sharp_dimensions(7, 4) == []


def test_admissible_chars():
    assert admissible_chars(6) == []
    assert admissible_chars(13) == [3, 5]
    assert admissible_chars(8) == [5]
    assert admissible_chars(1) == [3]
    # d = 2^t - 2 has no admissible odd characteristic
    for t in (2, 3, 4, 5):
        assert admissible_chars(2**t - 2) == []


# The lane versions of the midpoints and the midpoint lemma against the
# field-call oracles: 1-byte lanes (GF(3), GF(5), GF(9), GF(25) and
# GF(243), whose encodings fill the byte), 2-byte lanes (GF(127),
# GF(257), where p > 256 has no byte encoding, and GF(729), k = 6).
LANE_FIELDS = {(p, k): field_make(p, k) for p, k in
               ((3, 1), (5, 1), (127, 1), (257, 1), (3, 2), (5, 2), (3, 5),
                (3, 6))}


def test_midpoint_sources_match_field_calls():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def midpoint_sets(draw):
        f = LANE_FIELDS[draw(st.sampled_from(sorted(LANE_FIELDS)))]
        dim, n = draw(st.integers(1, 5)), draw(st.integers(4, 7))
        coord = st.integers(0, f.q - 1)
        point = st.tuples(*[coord] * dim)
        xs = draw(st.lists(point, min_size=n, max_size=n))
        mids = brute_force.midpoints(f, xs)
        t = draw(st.integers(0, len(mids) - 1))
        mutation = draw(st.sampled_from(["none", "coordinate", "swap",
                                         "replace"]))
        if mutation == "coordinate":
            x = list(mids[t])
            j = draw(st.integers(0, dim - 1))
            x[j] = draw(coord.filter(lambda c: c != x[j]))
            mids[t] = tuple(x)
        elif mutation == "swap":
            u = draw(st.integers(0, len(mids) - 1))
            mids[t], mids[u] = mids[u], mids[t]
        elif mutation == "replace":
            mids[t] = draw(point)
        hypothesis.assume(len(set(mids)) == len(mids))
        return PointSet(f, dim, FORM_STANDARD, mids)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(midpoint_sets())
    def check(s):
        assert midpoint_sources(s) == brute_force.midpoint_sources(s)

    check()


def test_midpoints_match_field_calls():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def equilateral_sets(draw):
        # a translated, reordered modular simplex with d <= 10, or two
        # points at a nonzero distance (every field, any dimension)
        f = LANE_FIELDS[draw(st.sampled_from(sorted(LANE_FIELDS)))]
        sharp = sharp_dimensions(f.p, 10)
        coord = st.integers(0, f.q - 1)
        if sharp and draw(st.booleans()):
            d = draw(st.sampled_from(sharp))
            b = draw(st.integers(1, f.q - 1))
            points = modular_equilateral(ModularParams(f, d, b)).points
            t = draw(st.lists(coord, min_size=d, max_size=d))
            t.append(f.neg(functools.reduce(f.add, t, f.zero)))
            points = [tuple(map(f.add, x, t))
                      for x in draw(st.permutations(points))]
            return PointSet(f, d + 1, FORM_SUM_ZERO, points)
        dim = draw(st.integers(1, 12))
        pair = draw(st.lists(st.tuples(*[coord] * dim), min_size=2,
                             max_size=2, unique=True))
        hypothesis.assume(dist2(f, *pair) != f.zero)
        return PointSet(f, dim, FORM_STANDARD, pair)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(equilateral_sets())
    def check(s):
        mid = midpoints(s)
        assert mid.points.points == brute_force.midpoints(s.field, s.points)

    check()
