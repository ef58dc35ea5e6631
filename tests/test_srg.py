import random
from math import comb

import pytest

from ffdist.field import field_make
from ffdist import construct, srg
from ffdist.linalg import rank
from ffdist.construct import ModularParams, modular_equilateral, midpoints
from ffdist.geometry import PointSet, FORM_STANDARD
from ffdist.srg import (
    midpoint_graph, expected_params, srg_check, eigen_collapse, TooSmall,
    BadDistanceValue,
)

from test_construct import grid


def graph(matrix):
    """Rows of a 0/1 adjacency matrix, bit j of row i = matrix[i][j]."""
    return [sum(x << j for j, x in enumerate(row)) for row in matrix]


def assert_symmetric_zero_diagonal(rows):
    v = len(rows)
    assert all(0 <= r < 1 << v for r in rows)
    matrix = [format(r, "0%db" % v)[::-1] for r in rows]
    assert all(row[i] == "0" for i, row in enumerate(matrix))
    assert ["".join(col) for col in zip(*matrix)] == matrix


def equilateral_subset(n):
    # first n points of the 11-point modular set (p=11, d=9); any
    # subset of an equilateral set is equilateral
    f = field_make(11)
    s = modular_equilateral(ModularParams(f, 9, 1))
    return PointSet(f, s.ambient_dim, s.form, s.points[:n])


def test_expected_params_examples():
    assert expected_params(5) == {"v": 10, "k": 6, "lambda": 3, "mu": 4,
                                  "eigenvalues": [(6, 1), (1, 4), (-2, 5)]}
    assert expected_params(6) == {"v": 15, "k": 8, "lambda": 4, "mu": 4,
                                  "eigenvalues": [(8, 1), (2, 5), (-2, 9)]}
    assert expected_params(4) == {"v": 6, "k": 4, "lambda": 2, "mu": 4,
                                  "eigenvalues": [(4, 1), (0, 3), (-2, 2)]}


def test_expected_params_too_small():
    with pytest.raises(TooSmall):
        expected_params(3)


def test_midpoint_graph_p5_d3():
    f5 = field_make(5)
    mid = midpoints(modular_equilateral(ModularParams(f5, 3, 1)))
    rows = midpoint_graph(mid.points, mid.d4)
    assert [r.bit_count() for r in rows] == [6] * 10  # 30 edges


def test_midpoint_graph_n3_is_triangle():
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    mid = midpoints(s)
    rows = midpoint_graph(mid.points, mid.d4)
    assert [r.bit_count() for r in rows] == [2] * 3  # L(K_3) = K_3, 3 edges


def test_midpoint_graph_bad_distance():
    f5 = field_make(5)
    s = PointSet(f5, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    with pytest.raises(BadDistanceValue):
        # edge value 4, non-edges at 3 (delta = 1): distance 1 matches neither
        midpoint_graph(s, 4)


def test_srg_check_passes_for_midpoint_graphs():
    f5 = field_make(5)
    mid = midpoints(modular_equilateral(ModularParams(f5, 3, 1)))
    report = srg_check(midpoint_graph(mid.points, mid.d4), 5)
    assert report == dict(ok=True, n=5, **expected_params(5))
    # ambient (p=3, d=4) construction, n = 6
    f3 = field_make(3)
    mid6 = midpoints(modular_equilateral(ModularParams(f3, 4, 1)))
    assert srg_check(midpoint_graph(mid6.points, mid6.d4), 6)["ok"]


def test_midpoint_graph_rows_symmetric_with_zero_diagonal():
    for f, d, b in grid():
        mid = midpoints(modular_equilateral(ModularParams(f, d, b)))
        assert_symmetric_zero_diagonal(midpoint_graph(mid.points, mid.d4))
    # the same midpoints in shuffled order: the graph is permuted, and
    # still T(n)
    f = field_make(7)
    mid = midpoints(modular_equilateral(ModularParams(f, 5, 1)))
    graph = midpoint_graph(mid.points, mid.d4)
    order = list(range(len(mid.points)))
    random.Random(7).shuffle(order)
    shuffled = PointSet(f, mid.points.ambient_dim, mid.points.form,
                        [mid.points.points[i] for i in order])
    rows = midpoint_graph(shuffled, mid.d4)
    assert_symmetric_zero_diagonal(rows)
    assert [[r >> j & 1 for j in range(len(rows))] for r in rows] == [
        [graph[i] >> j & 1 for j in order] for i in order]
    assert srg_check(rows, 7)["ok"]


def test_srg_check_range_4_to_10():
    # independent oracle for the spectrum: the multiplicity of theta is
    # v - rank(A - theta I).  Mod P the rank can only drop, so each mod-P
    # multiplicity bounds the rational one from above; eigenspaces of
    # distinct eigenvalues are independent, so the mod-P values sum to at
    # most v, which the rational multiplicities of T(n)'s three
    # eigenvalues already reach.  Hence the two agree exactly.
    f = field_make(2**31 - 1)
    for n in range(4, 11):
        s = equilateral_subset(n)
        mid = midpoints(s)
        rows = midpoint_graph(mid.points, mid.d4)
        report = srg_check(rows, n)
        assert report["ok"], report
        assert sum(m for _, m in report["eigenvalues"]) == comb(n, 2)
        v = len(rows)
        matrix = [[r >> j & 1 for j in range(v)] for r in rows]
        for theta, mult in report["eigenvalues"]:
            shifted = [[a - (theta if i == j else 0)
                        for j, a in enumerate(row)]
                       for i, row in enumerate(matrix)]
            oracle = [[f.coerce(a) for a in row] for row in shifted]
            assert v - rank(f, oracle) == mult


def cycle(n):
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i][j] = adj[j][i] = 1
    return graph(adj)


def test_srg_check_rejects_k4():
    # K_4 is not L(K_4) (that one is the octahedron): regularity fails
    adj = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    report = srg_check(graph(adj), 4)
    assert not report["ok"]
    assert report["failure"] == "vertex count 4 != v = 6"


def test_srg_check_rejects_wrong_identity():
    # the 6-cycle has T(4)'s vertex count, but degree 2 where T(4) has 4
    report = srg_check(cycle(6), 4)
    assert not report["ok"]
    assert report["failure"] == "vertex 0 has degree 2, expected 4"


def test_srg_check_rejects_regular_graph_failing_identity():
    # the circulant C_10(1, 2, 3) is 6-regular on 10 vertices like T(5),
    # but vertices 0 and 1 share 4 neighbours (2, 3, 8, 9), not lambda = 3
    adj = [[int(min((i - j) % 10, (j - i) % 10) in (1, 2, 3))
            for j in range(10)] for i in range(10)]
    report = srg_check(graph(adj), 5)
    assert not report["ok"]
    assert report["failure"] == "A^2 entry (0, 1) is 4, expected 3"


def test_eigen_collapse_examples():
    r = eigen_collapse(5, 5)
    assert r["collapse"] and r["third_distinct"]
    assert r["top_mod_p"] == 1 and r["mid_mod_p"] == 1
    r = eigen_collapse(6, 3)
    assert r["collapse"] and r["third_distinct"]
    r = eigen_collapse(7, 3)
    assert not r["collapse"]


def test_eigen_collapse_pattern():
    # the top two eigenvalues differ by n, so collapse iff p | n; the
    # lower two differ by n - 2, so they stay distinct iff p does not
    # divide n - 2
    for p in (3, 5, 7):
        for n in range(4, 16):
            r = eigen_collapse(n, p)
            assert r["collapse"] == (n % p == 0)
            assert r["third_distinct"] == ((n - 2) % p != 0)
