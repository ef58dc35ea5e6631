from math import comb

import pytest

from ffdist.field import field_make
from ffdist import construct, srg
from ffdist.linalg import rank
from ffdist.construct import ModularParams, modular_equilateral, midpoints
from ffdist.geometry import PointSet, FORM_STANDARD
from ffdist.srg import (
    Graph, SrgParams, midpoint_graph, expected_params, srg_check,
    eigen_collapse, TooSmall, BadDistanceValue,
)


def graph(matrix):
    """Graph from a 0/1 adjacency matrix, bit j of row i = matrix[i][j]."""
    return Graph([sum(x << j for j, x in enumerate(row)) for row in matrix])


def equilateral_subset(n):
    # first n points of the 11-point modular set (p=11, d=9); any
    # subset of an equilateral set is equilateral
    f = field_make(11)
    s = modular_equilateral(ModularParams(f, 9, 1))
    return PointSet(f, s.ambient_dim, s.form, s.points[:n])


def test_expected_params_examples():
    p5 = expected_params(5)
    assert (p5.v, p5.k, p5.lam, p5.mu) == (10, 6, 3, 4)
    assert p5.eigenvalues == [(6, 1), (1, 4), (-2, 5)]
    p6 = expected_params(6)
    assert (p6.v, p6.k, p6.lam, p6.mu) == (15, 8, 4, 4)
    assert p6.eigenvalues == [(8, 1), (2, 5), (-2, 9)]
    p4 = expected_params(4)
    assert (p4.v, p4.k, p4.lam, p4.mu) == (6, 4, 2, 4)
    assert p4.eigenvalues == [(4, 1), (0, 3), (-2, 2)]


def test_expected_params_too_small():
    with pytest.raises(TooSmall):
        expected_params(3)


def test_midpoint_graph_p5_d3():
    f5 = field_make(5)
    mid = midpoints(modular_equilateral(ModularParams(f5, 3, 1)))
    g = midpoint_graph(mid.points, mid.d4)
    assert g.n_vertices == 10
    assert g.degrees() == [6] * 10  # 30 edges


def test_midpoint_graph_n3_is_triangle():
    f3 = field_make(3)
    s = PointSet(f3, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    mid = midpoints(s)
    g = midpoint_graph(mid.points, mid.d4)
    assert g.n_vertices == 3
    assert g.degrees() == [2] * 3  # L(K_3) = K_3, 3 edges


def test_midpoint_graph_bad_distance():
    f5 = field_make(5)
    s = PointSet(f5, 1, FORM_STANDARD, [(0,), (1,), (2,)])
    with pytest.raises(BadDistanceValue):
        # edge value 4, non-edges at 3 (delta = 1): distance 1 matches neither
        midpoint_graph(s, 4)


def test_srg_check_passes_for_midpoint_graphs():
    f5 = field_make(5)
    mid = midpoints(modular_equilateral(ModularParams(f5, 3, 1)))
    g = midpoint_graph(mid.points, mid.d4)
    assert srg_check(g, expected_params(5))["ok"]
    # ambient (p=3, d=4) construction, n = 6
    f3 = field_make(3)
    mid6 = midpoints(modular_equilateral(ModularParams(f3, 4, 1)))
    g6 = midpoint_graph(mid6.points, mid6.d4)
    assert srg_check(g6, expected_params(6))["ok"]


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
        g = midpoint_graph(mid.points, mid.d4)
        report = srg_check(g, expected_params(n))
        assert report["ok"], report
        assert sum(m for _, m in report["eigenvalues"]) == comb(n, 2)
        v = g.n_vertices
        matrix = [[r >> j & 1 for j in range(v)] for r in g.rows]
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


def test_srg_check_petersen():
    # complement of the line graph of K_5
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    adj = [[int(not set(x) & set(y)) for y in edges] for x in edges]
    params = SrgParams(10, 3, 0, 1, [(3, 1), (1, 5), (-2, 4)])
    assert srg_check(graph(adj), params)["ok"]


def test_srg_check_c5_irrational_spectrum():
    # C_5 is srg(5, 2, 0, 1) with eigenvalues (-1 +- sqrt 5)/2: no
    # integer claim may pass, and none may raise
    for r in range(-3, 3):
        for s in range(-3, r):
            for f in range(5):
                claim = [(2, 1), (r, f), (s, 4 - f)]
                report = srg_check(cycle(5), SrgParams(5, 2, 0, 1, claim))
                assert not report["ok"]
                assert "multiplicity" in report["failure"]


def test_srg_check_mu_zero_fails():
    # two disjoint triangles satisfy the identity of srg(6, 2, 1, 0),
    # but mu = 0 leaves the multiplicity of k open
    adj = [[int(i != j and i // 3 == j // 3) for j in range(6)]
           for i in range(6)]
    report = srg_check(graph(adj), SrgParams(6, 2, 1, 0, [(2, 2), (-1, 4)]))
    assert not report["ok"]
    assert "mu = 0" in report["failure"]


def test_srg_check_complete_graph_double_root():
    # K_4 has no non-adjacent pair, so any mu passes the identity; with
    # mu = 4 both roots of x^2 - (lambda - mu) x - (k - mu) are -1
    adj = [[int(i != j) for j in range(4)] for i in range(4)]
    report = srg_check(graph(adj), SrgParams(4, 3, 2, 4, [(3, 1), (-1, 3)]))
    assert report["ok"], report


def test_srg_check_rejects_k4():
    # K_4 is not L(K_4) (that one is the octahedron): regularity fails
    adj = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    report = srg_check(graph(adj), expected_params(4))
    assert not report["ok"]
    assert "vertex count" in report["failure"]


def test_srg_check_rejects_wrong_identity():
    # 6-cycle: right size for no params here, use its own counts; the
    # A^2 identity must fail for the triangular parameters of n=4
    # degree 2 != 4 fails first; force a graph with right degree:
    # K_{3,3} is 3-regular, still wrong
    report = srg_check(cycle(6), expected_params(4))
    assert not report["ok"]


def test_graph_validation():
    with pytest.raises(ValueError):
        graph([[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        graph([[0, 1], [0, 0]])  # asymmetric


def test_eigen_collapse_examples():
    r = eigen_collapse(5, 5)
    assert r["collapse"] and r["third_distinct"]
    assert r["top_mod_p"] == 1 and r["mid_mod_p"] == 1
    r = eigen_collapse(6, 3)
    assert r["collapse"] and r["third_distinct"]
    r = eigen_collapse(7, 3)
    assert not r["collapse"]


def test_eigen_collapse_pattern():
    # difference of the top two eigenvalues is n, so collapse iff p | n
    for p in (3, 5, 7):
        for n in range(4, 16):
            r = eigen_collapse(n, p)
            assert r["collapse"] == (n % p == 0)
            assert r["collapse_iff_p_divides_n"]
            assert r["third_distinct"] == ((n - 2) % p != 0)
            assert r["third_distinct_iff"]
