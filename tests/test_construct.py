from math import comb

import pytest

from ffdist.field import field_make, SquareClass
from ffdist import construct, geometry
from ffdist.construct import (
    ModularParams, modular_equilateral, midpoints, embed_standard,
    sharp_dimensions, admissible_chars, NotModular, ZeroScale,
    NotEquilateral, SHARED_VERTEX, DISJOINT_EDGES,
)
from ffdist.geometry import (
    PointSet, FORM_STANDARD, FORM_SUM_ZERO, dist2, classify, Equilateral,
    TwoDistance, gram_rank,
)
from ffdist.linalg import NotIsometric


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
    assert all(t == SHARED_VERTEX for t in mid.pair_types.values())


def test_midpoints_requires_equilateral():
    f3 = field_make(3)
    import itertools
    pts = list(itertools.product(range(3), repeat=2))
    with pytest.raises(NotEquilateral):
        midpoints(PointSet(f3, 2, FORM_STANDARD, pts))


def test_midpoint_lemma_exhaustive_grid():
    for f, d, b in grid():
        s = modular_equilateral(ModularParams(f, d, b))
        mid = midpoints(s)  # internally re-verifies every pair distance
        n = d + 2
        assert len(mid.points) == comb(n, 2) == geometry.blokhuis_bound(d)
        shared = sum(1 for t in mid.pair_types.values() if t == SHARED_VERTEX)
        disjoint = sum(1 for t in mid.pair_types.values()
                       if t == DISJOINT_EDGES)
        # each midpoint meets 2(n-2) others in a vertex: handshake count
        assert shared == comb(n, 2) * (n - 2)
        assert shared + disjoint == comb(comb(n, 2), 2)


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
